package main

import (
	"strings"
	"testing"
)

func TestCheckSnapLine3(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-proto", "snap", "-topo", "line", "-n", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VERIFIED") || !strings.Contains(out.String(), "46656 initial configurations, 47558 states, 82768 transitions") {
		t.Fatalf("snap protocol not verified over the full line-3 domain:\n%s", out.String())
	}
}

func TestCheckSelfStabLine4FindsViolation(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-proto", "selfstab", "-topo", "line", "-n", "4"}, &out)
	if err == nil {
		t.Fatalf("baseline passed checking:\n%s", out.String())
	}
	for _, want := range []string{"SAFETY VIOLATION", "\n    0: p0{", "PIF1 violated"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("violation path not reported (no %q):\n%s", want, out.String())
		}
	}
}

func TestCheckFaultsMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "faults", "-topo", "ring", "-n", "5", "-seeds", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VERIFIED") {
		t.Fatalf("faults mode not verified:\n%s", out.String())
	}
	// faults mode is snap-only.
	var out2 strings.Builder
	if err := run([]string{"-mode", "faults", "-proto", "selfstab"}, &out2); err == nil {
		t.Fatal("faults mode accepted for the baseline")
	}
	var out3 strings.Builder
	if err := run([]string{"-mode", "sideways"}, &out3); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestCheckRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-proto", "quantum"},
		{"-topo", "kleinbottle"},
		{"-daemon", "laplace"},
		{"-topo", "ring", "-n", "2"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestCheckLimitFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-topo", "line", "-n", "3", "-limit", "100"}, &out); err == nil {
		t.Fatal("limit not enforced")
	}
}
