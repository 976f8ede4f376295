// Command piftrace analyzes the structured JSONL event traces emitted by
// the observability layer (internal/obs): it summarizes runs, reconstructs
// wave timelines and per-processor phase Gantt charts, re-checks the
// paper's Section-4 invariants offline by replaying the recorded schedule,
// and diffs two traces — the cross-binary determinism oracle.
//
// Usage:
//
//	piftrace summary FILE            totals, moves per action, wave table
//	                                 (one row per wave, with its run),
//	                                 wave-latency percentiles (p50/p95/p99
//	                                 rounds)
//	piftrace timeline [-every k] FILE   phase Gantt (rows: processors,
//	                                 columns: round boundaries) + wave spans,
//	                                 each with its run; a wave a run end or
//	                                 fault cut says so
//	piftrace spans [-o FILE] FILE    export causal wave spans as Chrome
//	                                 trace_event JSON — load the output in
//	                                 Perfetto (ui.perfetto.dev) or
//	                                 chrome://tracing
//	piftrace check FILE              offline replay: re-run the recorded
//	                                 schedule from the recorded initial
//	                                 snapshot, re-evaluate Properties 1–2
//	                                 and the domain invariants after every
//	                                 step, and verify the final state
//	                                 matches the recorded final snapshot
//	                                 bit for bit
//	piftrace diff FILE1 FILE2        first divergence between two traces
//	                                 (exit 1 when they diverge)
//
// Traces are produced by pifsim -events, the snappif.WithEventTrace
// network option, or any direct obs.Tracer user. summary and diff work on
// any trace, though wave spans (summary's wave table, timeline's wave
// lines) need the meta header's root; timeline needs snapshots and phase
// events; check additionally needs the topology (edge list) in the header.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
	"snappif/internal/trace"
	"snappif/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "piftrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: piftrace <summary|timeline|spans|check|diff> [flags] FILE...")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		tr, err := readTraceArg(rest, 0)
		if err != nil {
			return err
		}
		return summary(out, tr)
	case "timeline":
		fs := flag.NewFlagSet("piftrace timeline", flag.ContinueOnError)
		every := fs.Int("every", 1, "sample every k-th round")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		tr, err := readTraceArg(fs.Args(), 0)
		if err != nil {
			return err
		}
		return timeline(out, tr, *every)
	case "spans":
		fs := flag.NewFlagSet("piftrace spans", flag.ContinueOnError)
		outPath := fs.String("o", "", "write the trace_event JSON to this file instead of stdout")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		tr, err := readTraceArg(fs.Args(), 0)
		if err != nil {
			return err
		}
		return spansCmd(out, *outPath, tr)
	case "check":
		tr, err := readTraceArg(rest, 0)
		if err != nil {
			return err
		}
		return offlineCheck(out, tr)
	case "diff":
		if len(rest) != 2 {
			return fmt.Errorf("usage: piftrace diff FILE1 FILE2")
		}
		a, err := readTraceArg(rest, 0)
		if err != nil {
			return err
		}
		b, err := readTraceArg(rest, 1)
		if err != nil {
			return err
		}
		return diff(out, a, b)
	default:
		return fmt.Errorf("unknown subcommand %q (want summary, timeline, spans, check, or diff)", cmd)
	}
}

// readTraceArg opens and decodes the i-th positional trace file.
func readTraceArg(args []string, i int) (*obs.Trace, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("missing trace file argument")
	}
	f, err := os.Open(args[i])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", args[i], err)
	}
	return tr, nil
}

// summary prints the header, totals, per-action moves, and the wave table.
func summary(out io.Writer, tr *obs.Trace) error {
	if m := tr.Meta; m != nil {
		fmt.Fprintf(out, "protocol: %s  topology: %s (n=%d)  root: p%d  daemon: %s  seed: %d\n",
			m.Protocol, m.Graph, m.N, m.Root, m.Daemon, m.Seed)
	}
	if s := tr.Summary; s != nil {
		fmt.Fprintf(out, "totals: %d steps, %d moves, %d rounds, %d waves, %d runs\n",
			s.Steps, s.Moves, s.Rounds, s.Waves, s.Runs)
		if s.Dropped > 0 {
			fmt.Fprintf(out, "dropped: %d step events (recorder limit)\n", s.Dropped)
		}
		if len(s.MovesPerAction) > 0 {
			tbl := trace.NewTable("moves per action", "action", "moves")
			for _, name := range sortedKeys(s.MovesPerAction) {
				tbl.AddRow(name, s.MovesPerAction[name])
			}
			tbl.Render(out)
		}
	} else {
		fmt.Fprintln(out, "totals: trace has no summary event (truncated trace?)")
	}
	if spans := waveSpans(out, tr); len(spans) > 0 {
		tbl := trace.NewTable("waves", "run", "wave", "msg", "start step", "end step", "start round", "end round", "rounds")
		for _, w := range spans {
			if w.Open {
				tbl.AddRow(w.Run, w.Wave, w.Msg, w.StartStep, "open", w.StartRound, "-", "-")
				continue
			}
			tbl.AddRow(w.Run, w.Wave, w.Msg, w.StartStep, w.EndStep, w.StartRound, w.EndRound, w.Rounds())
		}
		tbl.Render(out)
		waveLatency(out, spans)
	}
	return nil
}

// waveSpans reconstructs the trace's waves with telemetry.SpansFromTrace,
// the pairing pinned equal to the live recording. A trace without a meta
// header has no root to pair against: it gets a note instead of waves.
func waveSpans(out io.Writer, tr *obs.Trace) []telemetry.Span {
	spans, err := telemetry.SpansFromTrace(tr)
	if err != nil {
		fmt.Fprintf(out, "waves: %v\n", err)
	}
	return spans
}

// waveLatency prints the completed-wave round percentiles.
func waveLatency(out io.Writer, spans []telemetry.Span) {
	var rounds []int64
	for _, w := range spans {
		if !w.Open {
			rounds = append(rounds, int64(w.Rounds()))
		}
	}
	if len(rounds) == 0 {
		return
	}
	fmt.Fprintf(out, "wave latency (%d completed): rounds p50=%d p95=%d p99=%d\n", len(rounds),
		telemetry.ExactQuantile(rounds, 0.50), telemetry.ExactQuantile(rounds, 0.95), telemetry.ExactQuantile(rounds, 0.99))
}

// spansCmd exports the trace's causal wave spans as Chrome trace_event JSON.
func spansCmd(out io.Writer, path string, tr *obs.Trace) (err error) {
	spans, err := telemetry.SpansFromTrace(tr)
	if err != nil {
		return err
	}
	name := "piftrace"
	if tr.Meta != nil && tr.Meta.Protocol != "" {
		name = tr.Meta.Protocol
	}
	w := out
	if path != "" {
		f, cerr := os.Create(path)
		if cerr != nil {
			return cerr
		}
		// The close error is the write error on many filesystems.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	return telemetry.WriteTraceEvents(w, name, spans)
}

// timeline reconstructs the per-processor phase strips at round boundaries
// from the snapshots and phase events, and renders the Gantt chart plus the
// wave spans.
func timeline(out io.Writer, tr *obs.Trace, every int) error {
	if every < 1 {
		every = 1
	}
	var (
		cur    []byte
		strips []string
		run    int
	)
	flush := func() {
		if len(strips) == 0 {
			return
		}
		fmt.Fprintf(out, "run %d — one column per %s:\n", run, sampleName(every))
		viz.PhaseTimeline(out, strips)
		strips = strips[:0]
	}
	sawSnapshot := false
	for _, ev := range tr.Events {
		switch ev.T {
		case "run":
			flush()
			run = ev.Run
		case "init", "fault":
			sawSnapshot = true
			cur = []byte(ev.Pif)
			if ev.T == "fault" {
				fmt.Fprintf(out, "fault injected: %s\n", ev.Name)
			}
		case "phase":
			if cur != nil && ev.P < len(cur) && len(ev.To) == 1 {
				cur[ev.P] = ev.To[0]
			}
		case "round":
			if cur != nil && ev.Round%every == 0 {
				strips = append(strips, string(cur))
			}
		}
	}
	flush()
	if !sawSnapshot {
		return fmt.Errorf("trace has no state snapshots; record with snapshots and phase events enabled")
	}
	spans := waveSpans(out, tr)
	for i, w := range spans {
		switch {
		case w.Open && i < len(spans)-1:
			fmt.Fprintf(out, "run %d wave %d: rounds %d.. (cut by a run end or fault), msg=%d\n", w.Run, w.Wave, w.StartRound, w.Msg)
		case w.Open:
			fmt.Fprintf(out, "run %d wave %d: rounds %d.. (open at end of trace), msg=%d\n", w.Run, w.Wave, w.StartRound, w.Msg)
		default:
			fmt.Fprintf(out, "run %d wave %d: rounds %d..%d (%d rounds), steps %d..%d, msg=%d\n",
				w.Run, w.Wave, w.StartRound, w.EndRound, w.Rounds(), w.StartStep, w.EndStep, w.Msg)
		}
	}
	return nil
}

func sampleName(every int) string {
	if every == 1 {
		return "round"
	}
	return fmt.Sprintf("%d rounds", every)
}

// offlineCheck replays the recorded schedule from the recorded initial
// snapshot and re-evaluates the Section-4 invariants after every step.
func offlineCheck(out io.Writer, tr *obs.Trace) error {
	g, err := tr.Graph()
	if err != nil {
		return err
	}
	m := tr.Meta
	var opts []core.Option
	if m.Lmax > 0 {
		opts = append(opts, core.WithLmax(m.Lmax))
	}
	if m.NPrime > 0 {
		opts = append(opts, core.WithNPrime(m.NPrime))
	}
	proto, err := core.New(g, m.Root, opts...)
	if err != nil {
		return err
	}
	if err := sameActions(m.Actions, proto.ActionNames()); err != nil {
		return err
	}

	// Cut the trace into replay segments: each snapshot (run start or fault
	// injection) re-bases the configuration; the steps that follow replay
	// from it.
	type segment struct {
		snap   *obs.Event
		script [][]sim.Choice
	}
	var (
		segs  []segment
		final *obs.Event
	)
	for _, ev := range tr.Events {
		switch ev.T {
		case "init", "fault":
			segs = append(segs, segment{snap: ev})
		case "final":
			final = ev
		case "step":
			if len(segs) == 0 {
				return fmt.Errorf("trace has step events before any state snapshot")
			}
			s := &segs[len(segs)-1]
			choices := make([]sim.Choice, len(ev.Exec))
			for i, pa := range ev.Exec {
				choices[i] = sim.Choice{Proc: pa[0], Action: pa[1]}
			}
			s.script = append(s.script, choices)
		}
	}

	var (
		steps, moves, rounds int
		violations           int
		cfg                  *sim.Configuration
	)
	for i, seg := range segs {
		if len(seg.script) == 0 {
			continue
		}
		cfg = sim.NewConfiguration(g, proto)
		if err := seg.snap.Restore(cfg); err != nil {
			return err
		}
		mon := check.NewMonitor(proto, check.StandardChecks())
		want := len(seg.script)
		res, err := sim.Run(cfg, proto, &sim.Replay{Script: seg.script}, sim.Options{
			MaxSteps:  want + 1,
			Seed:      1,
			Observers: []sim.Observer{mon},
			StopWhen:  func(rs *sim.RunState) bool { return rs.Steps >= want },
		})
		if err != nil {
			return fmt.Errorf("segment %d: replay: %w", i+1, err)
		}
		steps += res.Steps
		moves += res.Moves
		rounds += res.Rounds
		violations += len(mon.Violations)
		fmt.Fprintf(out, "segment %d (%s): %d steps, %d moves, %d rounds, %d invariant violations\n",
			i+1, seg.snap.T, res.Steps, res.Moves, res.Rounds, len(mon.Violations))
		for j, v := range mon.Violations {
			if j == 3 {
				fmt.Fprintf(out, "  … %d more\n", len(mon.Violations)-j)
				break
			}
			fmt.Fprintf(out, "  %s\n", v)
		}
	}

	if s := tr.Summary; s != nil {
		if steps != s.Steps || moves != s.Moves || rounds != s.Rounds {
			return fmt.Errorf("replay totals diverge from recorded summary: %d/%d/%d steps/moves/rounds vs %d/%d/%d",
				steps, moves, rounds, s.Steps, s.Moves, s.Rounds)
		}
		fmt.Fprintf(out, "totals match the recorded summary (%d steps, %d moves, %d rounds)\n",
			steps, moves, rounds)
	}
	if final != nil && cfg != nil {
		ref := sim.NewConfiguration(g, proto)
		if err := final.Restore(ref); err != nil {
			return err
		}
		for p := 0; p < cfg.N(); p++ {
			if core.At(cfg, p) != core.At(ref, p) {
				return fmt.Errorf("replayed final state diverges from the recorded snapshot at p%d: %v vs %v",
					p, core.At(cfg, p), core.At(ref, p))
			}
		}
		fmt.Fprintln(out, "final state matches the recorded snapshot bit for bit")
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	fmt.Fprintln(out, "offline check OK")
	return nil
}

// sameActions guards against replaying a trace with a protocol whose action
// numbering diverged from the recording binary's.
func sameActions(recorded, current []string) error {
	if len(recorded) == 0 {
		return nil
	}
	if len(recorded) != len(current) {
		return fmt.Errorf("trace records %d actions, this binary has %d", len(recorded), len(current))
	}
	for i := range recorded {
		if recorded[i] != current[i] {
			return fmt.Errorf("action %d is %q in the trace but %q in this binary", i, recorded[i], current[i])
		}
	}
	return nil
}

// diff prints the first divergence between two traces.
func diff(out io.Writer, a, b *obs.Trace) error {
	if d := obs.Diff(a, b); d != "" {
		fmt.Fprintln(out, d)
		return fmt.Errorf("traces diverge")
	}
	fmt.Fprintf(out, "traces are equivalent (%d events compared)\n", len(a.Events))
	return nil
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	//snapvet:ok the keys are sorted immediately below, so iteration order never reaches the output
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
