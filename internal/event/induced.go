package event

import (
	"math/rand"

	"snappif/internal/sim"
)

// InducedDaemon replays the event scheduler's latency-induced schedule as a
// plain sim.Daemon, so the *same* asynchronous execution can drive the
// sim engine and event.Runner's external-daemon mode. It maintains its own wake queue from the
// selections it returns, drawing per-link latencies from the Select-provided
// rng in exactly the runner's order (mover ascending × CSR neighbor order);
// with equal seeds, event.Runner in latency mode and sim.Runner under
// InducedDaemon produce identical RNG streams and therefore identical runs —
// the refinement obligation the differential tests discharge.
//
// The equivalence requires that the host engine's fairness forcing never
// fires (Options.FairnessAge > Latency.Max()+1, which the defaults satisfy
// for any cap below 4N): a forced mover would change state the daemon never
// learns about, stranding its neighbors' wakes. The induced schedule is
// weakly fair on its own — an enabled processor is woken within Max()+1
// ticks — so forcing has nothing to add.
type InducedDaemon struct {
	lat Latency

	q     *queue
	stamp []int64 // batch dedup: last tick p was delivered
	mark  []int64 // enabled/selected marks for the current call, by epoch
	epoch int64
	vtime int64
}

// NewInducedDaemon builds the daemon for one run. Instances are stateful
// and single-run: reusing one across runs replays a drained queue.
func NewInducedDaemon(lat Latency) *InducedDaemon {
	return &InducedDaemon{lat: lat}
}

// Name labels the induced schedule exactly like the event runner labels it,
// so traces from both engines stay byte-identical.
func (d *InducedDaemon) Name() string { return "event:" + d.lat.Name() }

// Select pops wake batches until one intersects the enabled set, returns
// that intersection (ascending, filtered in place from enabled), and posts
// the selection's wakes.
func (d *InducedDaemon) Select(step int, cfg *sim.Configuration, enabled []sim.Choice, rng *rand.Rand) []sim.Choice {
	n := cfg.G.N()
	if d.q == nil {
		d.q = newQueue(d.lat.Max() + 2)
		d.stamp = make([]int64, n)
		d.mark = make([]int64, n)
		for _, ch := range enabled {
			d.q.push(1, int32(ch.Proc))
		}
	}
	// Mark this call's enabled set (epoch-stamped, no clearing pass).
	d.epoch++
	for _, ch := range enabled {
		d.mark[ch.Proc] = d.epoch
	}
	for {
		t, bucket, ok := d.q.pop()
		if !ok {
			panic("event: induced schedule drained with processors still enabled (lost wakeup)")
		}
		woken := 0
		for _, p := range bucket {
			if d.stamp[p] == t {
				continue
			}
			d.stamp[p] = t
			if d.mark[p] == d.epoch {
				d.mark[p] = d.epoch | markSelected
				woken++
			}
		}
		if woken == 0 {
			continue
		}
		d.vtime = t
		// Filter enabled in place: ascending order for free, and the host
		// engine copies the result before the next Select.
		sel := enabled[:0]
		for _, ch := range enabled {
			if d.mark[ch.Proc] == d.epoch|markSelected {
				sel = append(sel, ch)
			}
		}
		// Post the batch's wakes, drawing latencies in the runner's order.
		for _, ch := range sel {
			d.q.push(t+1, int32(ch.Proc))
			for _, nb := range cfg.G.Neighbors(ch.Proc) {
				d.q.push(t+1+d.lat.Sample(rng, int32(ch.Proc), int32(nb)), int32(nb))
			}
		}
		return sel
	}
}

// markSelected tags a mark epoch as "woken this batch"; epochs increment by
// 1 per Select call, so the tag bit (far above any realistic call count)
// never collides with an epoch value.
const markSelected = int64(1) << 62

// VirtualTime returns the virtual time of the last returned batch.
func (d *InducedDaemon) VirtualTime() int64 { return d.vtime }
