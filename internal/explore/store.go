package explore

import (
	"bytes"
	"math/bits"

	"snappif/internal/core"
	"snappif/internal/sim"
)

// store is the one intern table of both searches. A node is its ID, and
// everything the store keeps of it lives in flat columns indexed by that ID,
// so a finished search holds no per-node heap object:
//
//   - its record, the fixed-stride appendKey encoding of its vector and
//     monitor (decodeRecord inverts it);
//   - its canonical key, in a column of its own only when the admissible
//     group is non-trivial (otherwise the key is the record);
//   - its engine-reported enabled set, 2 bytes per choice (processor,
//     action) in a shared arena: a processor is below maxN and an action
//     one of core's seven;
//   - an open-addressing index over the canonical keys: linear probing from
//     the top bits of the key's FNV-1a hash, at most half full.
//
// Each search keeps its own extras in parallel columns of its own.
type store struct {
	stride int      // record bytes: keyBytesPerProc·n + 1
	canon  bool     // canonical keys have a column of their own
	recs   []byte   // node id's record at [id·stride, (id+1)·stride)
	keys   []byte   // node id's canonical key, when canon
	en     []byte   // enabled arena, 2 bytes per choice
	enEnd  []uint32 // node id's enabled set ends at en[enEnd[id]]
	slots  []int32  // id+1 of the node placed there, 0 when empty
	shift  uint     // a hash's home slot is hash >> shift
}

// newStore returns an empty store for n processors. canon keeps a
// canonical-key column (symmetry reduction with a non-trivial group).
// Nothing is allocated until the first add.
func newStore(n int, canon bool) store {
	return store{stride: keyBytesPerProc*n + 1, canon: canon}
}

// len returns the number of stored nodes.
func (s *store) len() int { return len(s.enEnd) }

// record returns node id's record.
func (s *store) record(id int32) []byte {
	i := int(id) * s.stride
	return s.recs[i : i+s.stride : i+s.stride]
}

// key returns node id's canonical key.
func (s *store) key(id int32) []byte {
	if !s.canon {
		return s.record(id)
	}
	i := int(id) * s.stride
	return s.keys[i : i+s.stride : i+s.stride]
}

// find returns the ID of the node keyed key (-1 if none) and the slot the
// probe stopped at, which add fills when the node is new.
func (s *store) find(hash uint64, key []byte) (id int32, slot int) {
	if len(s.slots) == 0 {
		return -1, -1
	}
	mask := len(s.slots) - 1
	for slot = int(hash >> s.shift); s.slots[slot] != 0; slot = (slot + 1) & mask {
		if id := s.slots[slot] - 1; bytes.Equal(s.key(id), key) {
			return id, slot
		}
	}
	return -1, slot
}

// add appends a node not yet stored, at the slot find returned for its key,
// and returns its ID. rec and key are copied; key is ignored without a
// canonical-key column.
func (s *store) add(slot int, hash uint64, rec, key []byte, enabled []sim.Choice) int32 {
	id := int32(s.len())
	if 2*(s.len()+1) > len(s.slots) {
		s.rehash(max(2*len(s.slots), 1<<10), s.len())
		_, slot = s.find(hash, key)
	}
	s.slots[slot] = id + 1
	s.recs = append(s.recs, rec...)
	if s.canon {
		s.keys = append(s.keys, key...)
	}
	for _, ch := range enabled {
		s.en = append(s.en, byte(ch.Proc), byte(ch.Action))
	}
	s.enEnd = append(s.enEnd, uint32(len(s.en)))
	return id
}

// rehash rebuilds the index at size slots (a power of two) over nodes
// [0, n), inserting them in ID order: the table is then exactly the one
// inserting them one by one would have built.
func (s *store) rehash(size, n int) {
	if len(s.slots) == size {
		clear(s.slots)
	} else {
		s.slots = make([]int32, size)
	}
	s.shift = uint(64 - bits.Len(uint(size-1)))
	mask := size - 1
	for id := int32(0); id < int32(n); id++ {
		slot := int(sim.FNV1a(sim.FNVOffset, s.key(id)) >> s.shift)
		for s.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.slots[slot] = id + 1
	}
}

// truncate drops every node from ID n on: it cuts every column and
// rebuilds the index over the nodes kept.
func (s *store) truncate(n int) {
	s.recs = s.recs[:n*s.stride]
	if s.canon {
		s.keys = s.keys[:n*s.stride]
	}
	s.en = s.en[:s.enStart(int32(n))]
	s.enEnd = s.enEnd[:n]
	s.rehash(len(s.slots), n)
}

// decode writes node id's vector into states (n long) and returns its
// monitor.
func (s *store) decode(id int32, states []core.State) monState {
	return decodeRecord(s.record(id), states)
}

// enStart returns the arena offset of node id's enabled set.
func (s *store) enStart(id int32) int {
	if id == 0 {
		return 0
	}
	return int(s.enEnd[id-1])
}

// choices returns node id's enabled set as raw 2-byte choices.
func (s *store) choices(id int32) []byte {
	return s.en[s.enStart(id):s.enEnd[id]]
}

// numEnabled returns the size of node id's enabled set.
func (s *store) numEnabled(id int32) int { return len(s.choices(id)) / 2 }

// firstChoice returns the index of node id's first choice among all stored
// choices, so a search can keep a per-choice column beside the arena.
func (s *store) firstChoice(id int32) int { return s.enStart(id) / 2 }

// choice returns the i-th choice of node id's enabled set.
func (s *store) choice(id int32, i int) sim.Choice {
	c := s.choices(id)[2*i:]
	return sim.Choice{Proc: int(c[0]), Action: int(c[1])}
}

// enabled appends node id's enabled set to buf.
func (s *store) enabled(id int32, buf []sim.Choice) []sim.Choice {
	c := s.choices(id)
	for i := 0; i < len(c); i += 2 {
		buf = append(buf, sim.Choice{Proc: int(c[i]), Action: int(c[i+1])})
	}
	return buf
}

// procs returns the set of processors enabled at node id.
func (s *store) procs(id int32) uint64 {
	c := s.choices(id)
	var mask uint64
	for i := 0; i < len(c); i += 2 {
		mask |= 1 << c[i]
	}
	return mask
}
