package graph

import (
	"math"
	"strings"
	"testing"
)

// TestCheckArcsBoundsOffsets: New refuses an edge list whose adjacency
// (two entries an edge) the int32 offsets cannot address. The check is
// tested at its boundary: a graph of 2³¹ adjacency entries would take
// 16 GB.
func TestCheckArcsBoundsOffsets(t *testing.T) {
	if err := checkArcs("big", math.MaxInt32); err != nil {
		t.Fatalf("%d entries: %v", math.MaxInt32, err)
	}
	err := checkArcs("big", math.MaxInt32+1)
	if err == nil || !strings.Contains(err.Error(), "int32") {
		t.Fatalf("%d entries: err = %v, want an int32 overflow error", math.MaxInt32+1, err)
	}
}
