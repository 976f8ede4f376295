package main

import (
	"bytes"
	"testing"
)

// TestParallelStdoutByteIdentical is the CLI half of the determinism
// contract: -parallel must not change a single byte of stdout. Experiments
// render into per-experiment buffers flushed in registry order, and every
// table cell seeds its own RNGs, so the fan-out is invisible in the output.
func TestParallelStdoutByteIdentical(t *testing.T) {
	ids := "E1,E2,E8,E9,F1"
	var serial, parallel bytes.Buffer
	if err := run([]string{"-quick", "-only", ids}, &serial); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if err := run([]string{"-quick", "-only", ids, "-parallel"}, &parallel); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("stdout differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}
