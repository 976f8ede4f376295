package explore

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"snappif/internal/core"
	"snappif/internal/sim"
)

// store is the one intern table of both searches. A node is its ID, and
// everything the store keeps of it lives in flat columns indexed by that ID,
// so a finished search holds no per-node heap object:
//
//   - its record, the bit-packed encoding of its vector and monitor in
//     the search's layout (decode inverts it);
//   - its canonical key, in a column of its own only when the admissible
//     group is non-trivial (otherwise the key is the record);
//   - its engine-reported enabled set, 2 bytes per choice (processor,
//     action) in a shared arena: a processor is below maxN and an action
//     one of core's seven;
//   - an openIndex over the canonical keys, hashed by indexHash. The
//     fingerprint of a search is FNV-1a over the same keys in the wide
//     layout (wideKey); the index hash only places nodes, so changing it
//     moves no ID.
//
// Each search keeps its own extras in parallel columns of its own.
type store struct {
	lay   layout   // the record format; every record is lay.size bytes
	canon bool     // canonical keys have a column of their own
	recs  []byte   // node id's record at [id·lay.size, (id+1)·lay.size)
	keys  []byte   // node id's canonical key, when canon
	en    []byte   // enabled arena, 2 bytes per choice
	enEnd []uint32 // node id's enabled set ends at en[enEnd[id]]
	index openIndex
}

// newStore returns an empty store of records in layout lay. canon keeps a
// canonical-key column (symmetry reduction with a non-trivial group).
// Nothing is allocated until the first add.
func newStore(lay layout, canon bool) store {
	return store{lay: lay, canon: canon}
}

// len returns the number of stored nodes.
func (s *store) len() int { return len(s.enEnd) }

// record returns node id's record.
func (s *store) record(id int32) []byte {
	n := s.lay.size
	i := int(id) * n
	return s.recs[i : i+n : i+n]
}

// key returns node id's canonical key.
func (s *store) key(id int32) []byte {
	if !s.canon {
		return s.record(id)
	}
	n := s.lay.size
	i := int(id) * n
	return s.keys[i : i+n : i+n]
}

// find returns the ID of the node keyed key (-1 if none) and the slot the
// probe stopped at, which add fills when the node is new. hash is
// indexHash(key).
//
//snapvet:hotpath
func (s *store) find(hash uint64, key []byte) (id int32, slot int) {
	x := &s.index
	if len(x.slots) == 0 {
		return -1, -1
	}
	for slot = x.home(hash); x.slots[slot] != 0; slot = x.next(slot) {
		if id := x.slots[slot] - 1; bytes.Equal(s.key(id), key) {
			return id, slot
		}
	}
	return -1, slot
}

// add appends a node not yet stored, at the slot find returned for its key,
// and returns its ID. rec and key are copied; key is ignored without a
// canonical-key column.
//
//snapvet:hotpath
func (s *store) add(slot int, hash uint64, rec, key []byte, enabled []sim.Choice) int32 {
	id := int32(s.len())
	if s.index.full(s.len()) {
		s.rehash(s.index.grown(), s.len())
		_, slot = s.find(hash, key)
	}
	s.index.slots[slot] = id + 1
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
//
//snapvet:coldpath the index doubles O(log n) times per search
func (s *store) rehash(size, n int) {
	s.index.reset(size)
	for id := int32(0); id < int32(n); id++ {
		s.index.place(indexHash(s.key(id)), id)
	}
}

// truncate drops every node from ID n on: it cuts every column and
// rebuilds the index over the nodes kept.
func (s *store) truncate(n int) {
	s.recs = s.recs[:n*s.lay.size]
	if s.canon {
		s.keys = s.keys[:n*s.lay.size]
	}
	s.en = s.en[:s.enStart(int32(n))]
	s.enEnd = s.enEnd[:n]
	s.rehash(len(s.index.slots), n)
}

// decode writes node id's vector into states (n long) and returns its
// monitor.
//
//snapvet:hotpath
func (s *store) decode(id int32, states []core.State) monState {
	return s.lay.unpack(s.record(id), states)
}

// wideKey appends node id's canonical key in the wide layout to b, decoding
// it into states on the way.
//
//snapvet:hotpath
func (s *store) wideKey(b []byte, id int32, states []core.State) []byte {
	mon := s.lay.unpack(s.key(id), states)
	return appendWideKey(b, states, mon, nil, nil)
}

// enStart returns the arena offset of node id's enabled set.
//
//snapvet:hotpath
func (s *store) enStart(id int32) int {
	if id == 0 {
		return 0
	}
	return int(s.enEnd[id-1])
}

// choices returns node id's enabled set as raw 2-byte choices.
//
//snapvet:hotpath
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
//
//snapvet:hotpath
func (s *store) enabled(id int32, buf []sim.Choice) []sim.Choice {
	c := s.choices(id)
	for i := 0; i < len(c); i += 2 {
		buf = append(buf, sim.Choice{Proc: int(c[i]), Action: int(c[i+1])})
	}
	return buf
}

// procs returns the set of processors enabled at node id.
//
//snapvet:hotpath
func (s *store) procs(id int32) uint64 {
	c := s.choices(id)
	var mask uint64
	for i := 0; i < len(c); i += 2 {
		mask |= 1 << c[i]
	}
	return mask
}

// openIndex is an open-addressing hash index over IDs: linear probing from
// the top bits of a 64-bit hash, kept at most half full. A slot holds
// ID+1, 0 when empty. The store indexes its nodes with one, and the
// liveness search its product states.
type openIndex struct {
	slots []int32
	shift uint // a hash's home slot is hash >> shift
}

// home returns the slot a probe for hash starts at.
//
//snapvet:hotpath
func (x *openIndex) home(hash uint64) int { return int(hash >> x.shift) }

// next returns the slot a probe visits after slot.
//
//snapvet:hotpath
func (x *openIndex) next(slot int) int { return (slot + 1) & (len(x.slots) - 1) }

// full reports whether adding an entry to the n indexed would fill more
// than half of the slots.
//
//snapvet:hotpath
func (x *openIndex) full(n int) bool { return 2*(n+1) > len(x.slots) }

// grown returns the slot count to rebuild at once full: double, and 1024
// at first.
func (x *openIndex) grown() int { return max(2*len(x.slots), 1<<10) }

// reset empties the index at size slots, a power of two.
//
//snapvet:coldpath the index doubles O(log n) times per search
func (x *openIndex) reset(size int) {
	if len(x.slots) == size {
		clear(x.slots)
	} else {
		x.slots = make([]int32, size)
	}
	x.shift = uint(64 - bits.Len(uint(size-1)))
}

// place puts id at the first empty slot of hash's probe sequence.
func (x *openIndex) place(hash uint64, id int32) {
	slot := x.home(hash)
	for x.slots[slot] != 0 {
		slot = x.next(slot)
	}
	x.slots[slot] = id + 1
}

// The index hash folds its input a 64-bit word at a time: each word is
// xored in, multiplied by an odd constant and rotated by half a word, and
// splitmix64's finalizer spreads every input bit into the top bits an
// openIndex keeps.
const (
	mixMul  = 0x9e3779b97f4a7c15 // ⌊2^64/φ⌋, odd
	finMul1 = 0xbf58476d1ce4e5b9 // splitmix64's finalizer
	finMul2 = 0x94d049bb133111eb
)

// mixWord folds the word w into the running hash h.
//
//snapvet:hotpath
func mixWord(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*mixMul, 32)
}

// finish is splitmix64's finalizer.
//
//snapvet:hotpath
func finish(h uint64) uint64 {
	h = (h ^ h>>30) * finMul1
	h = (h ^ h>>27) * finMul2
	return h ^ h>>31
}

// indexHash is the store's index hash of a non-empty key: its length, then
// its little-endian words, the last one read from the key's last 8 bytes
// (so it overlaps the one before when the length is no multiple of 8). A key
// shorter than 8 bytes is one word, zero-padded; the length tells the
// padding apart.
//
//snapvet:hotpath
func indexHash(key []byte) uint64 {
	n := len(key)
	h := uint64(n)
	if n < 8 {
		var w uint64
		for i, b := range key {
			w |= uint64(b) << (8 * i)
		}
		return finish(mixWord(h, w))
	}
	for i := 0; i+8 < n; i += 8 {
		h = mixWord(h, binary.LittleEndian.Uint64(key[i:]))
	}
	return finish(mixWord(h, binary.LittleEndian.Uint64(key[n-8:])))
}
