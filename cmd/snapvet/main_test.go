package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"-list"}, &buf)
	if err != nil || code != 0 {
		t.Fatalf("run(-list) = %d, %v", code, err)
	}
	for _, name := range []string{
		"guardpure", "writelocal", "detrange", "hotalloc",
		"radiusbound", "obspure",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, buf.String())
		}
	}
}

func TestBadFlag(t *testing.T) {
	code, err := run([]string{"-definitely-not-a-flag"}, io.Discard)
	if err == nil || code != 2 {
		t.Errorf("run(bad flag) = %d, %v; want 2 and an error", code, err)
	}
}
