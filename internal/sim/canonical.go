package sim

// Canonical state encoding: a deterministic byte serialization of a
// configuration, used by the exhaustive explorer (internal/explore) for
// state-hash deduplication and by differential tests to compare
// configurations produced by different engines (boxed sim vs flat SoA)
// without trusting either engine's own equality notion.

import "errors"

// ErrNotCanonical is returned when a configuration holds states that do not
// implement CanonicalState.
var ErrNotCanonical = errors.New("sim: state does not implement CanonicalState")

// CanonicalState is an optional State extension: a state that can append a
// fixed-width, deterministic byte encoding of itself. Two states of the same
// concrete type are equal iff their encodings are byte-equal.
type CanonicalState interface {
	State

	// AppendCanonical appends the canonical encoding to b and returns the
	// extended slice.
	AppendCanonical(b []byte) []byte
}

// AppendCanonical appends the canonical encoding of every processor state in
// ascending processor order. It fails if any state does not implement
// CanonicalState.
func (c *Configuration) AppendCanonical(b []byte) ([]byte, error) {
	for _, s := range c.States {
		cs, ok := s.(CanonicalState)
		if !ok {
			return b, ErrNotCanonical
		}
		b = cs.AppendCanonical(b)
	}
	return b, nil
}

// FNV-1a 64-bit parameters. The fingerprint must be stable across processes
// and runs (it is written to explore.json and asserted by CI), which rules
// out hash/maphash's per-process seeding; FNV-1a over the canonical encoding
// is deterministic by construction.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FNV1a extends an FNV-1a 64-bit hash with b. Start from FNVOffset.
func FNV1a(h uint64, b []byte) uint64 {
	for _, x := range b {
		h ^= uint64(x)
		h *= fnvPrime64
	}
	return h
}

// FNVOffset is the FNV-1a 64-bit offset basis, the initial hash value.
const FNVOffset uint64 = fnvOffset64

// Fingerprint returns the FNV-1a 64-bit hash of the configuration's
// canonical encoding. Equal configurations have equal fingerprints; the
// converse holds up to hash collision.
func (c *Configuration) Fingerprint() (uint64, error) {
	var buf [64]byte
	h := FNVOffset
	for _, s := range c.States {
		cs, ok := s.(CanonicalState)
		if !ok {
			return 0, ErrNotCanonical
		}
		h = FNV1a(h, cs.AppendCanonical(buf[:0]))
	}
	return h, nil
}

// AppendEnabled appends the currently enabled choices to buf in ascending
// processor order and returns the extended buffer: before the first Step
// the initial configuration's enabled set, after a Step the post-step
// configuration's (the cache is refreshed as part of committing the step,
// so this is the engine's own view — including the incremental
// re-evaluation path — not a recomputation). The exhaustive explorer
// branches on exactly this set, appending it to buffers it owns, so a warm
// call allocates nothing.
//
//snapvet:hotpath
func (r *Runner) AppendEnabled(buf []Choice) []Choice {
	buf = append(buf, r.cache.choices()...)
	return buf
}
