package telemetry

import "slices"

// ExactQuantile returns the exact nearest-rank q-quantile (0 ≤ q ≤ 1) of
// samples: the ⌈q·n⌉-th smallest value (minimum 1st, so ExactQuantile(s, 0)
// is the minimum and ExactQuantile(s, 1) the maximum). It sorts a private
// copy — O(n log n) and one allocation — which is fine for its callers,
// whose sample counts are bounded by a run's completed waves or a
// benchmark's measured steps: the service layer's latency report,
// piftrace's wave percentiles, perfbench, and the obs.LogHist error-bound
// tests, where it is the oracle the interpolated Quantile is checked
// against.
func ExactQuantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := int64(q * float64(len(sorted)))
	if float64(rank) < q*float64(len(sorted)) {
		rank++ // ceil for the non-integral ranks
	}
	if rank < 1 {
		rank = 1
	}
	if rank > int64(len(sorted)) {
		rank = int64(len(sorted))
	}
	return sorted[rank-1]
}
