// Command tgsweep runs the complete evaluation — every policy over every
// benchmark — and prints all sweep-derived artefacts (Figs. 7, 9, 10, 11,
// Table 2 and the Section 6.3 headline) in one pass. With -markdown the
// tables are emitted as GitHub-flavoured markdown, ready to paste into
// EXPERIMENTS.md.
//
// The sweep is fault-tolerant: a cell that fails is reported on stderr
// and the remaining cells still complete and print.
// With -faults every cell runs under the given fault schedule (see
// docs/ROBUSTNESS.md for the grammar).
package main

import (
	"flag"
	"fmt"
	"os"

	"thermogater/internal/core"
	"thermogater/internal/experiments"
	"thermogater/internal/fault"
	"thermogater/internal/report"
	"thermogater/internal/sim"
	"thermogater/internal/workload"
)

func main() {
	var (
		duration = flag.Int("duration", 0, "run length in ms (0 = full 3000ms ROI)")
		seed     = flag.Uint64("seed", 1, "random seed")
		parallel = flag.Int("parallel", 0, "max concurrent runs (0 = GOMAXPROCS)")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		faults   = flag.String("faults", "", "fault schedule armed in every run, e.g. 'vr-stuck-off@30:unit=12;sensor-noise@0:value=0.1'")
	)
	flag.Parse()

	sched, err := fault.ParseSchedule(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tgsweep:", err)
		os.Exit(2)
	}

	opts := experiments.Options{
		DurationMS: *duration,
		Seed:       *seed,
		Parallel:   *parallel,
	}
	if sched != nil {
		opts.Mutate = func(policy core.PolicyKind, bench workload.Profile, cfg *sim.Config) {
			cfg.Faults = sched
		}
	}
	fmt.Fprintf(os.Stderr, "tgsweep: running 14 benchmarks × %d policies (duration %dms, seed %d)\n",
		len(experiments.SweepPolicies()), *duration, *seed)
	// A failed cell comes back in sweep.Failures alongside a non-nil
	// error; only invalid input yields no sweep at all.
	sweep, err := experiments.RunSweep(experiments.SweepPolicies(), opts)
	if sweep == nil {
		fmt.Fprintln(os.Stderr, "tgsweep:", err)
		os.Exit(1)
	}
	for _, f := range sweep.Failures {
		fmt.Fprintln(os.Stderr, "tgsweep: failed run:", f)
	}

	tables := []struct {
		name string
		get  func() (*report.Table, error)
	}{
		{"fig7", sweep.Fig7PlossSaving},
		{"fig9", sweep.Fig9Tmax},
		{"fig10", sweep.Fig10Gradient},
		{"fig11", sweep.Fig11VoltageNoise},
		{"table2", sweep.Table2Emergencies},
		{"headline", func() (*report.Table, error) {
			h, err := sweep.Headline(0.90)
			if err != nil {
				return nil, err
			}
			return h.Table(), nil
		}},
	}
	for _, t := range tables {
		tab, err := t.get()
		if err != nil {
			// With failed cells a derived table can be incomplete; report
			// and keep printing whatever else survives.
			fmt.Fprintf(os.Stderr, "tgsweep: %s: %v\n", t.name, err)
			if len(sweep.Failures) == 0 {
				os.Exit(1)
			}
			continue
		}
		render := tab.Render
		if *markdown {
			render = tab.RenderMarkdown
		}
		if err := render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tgsweep:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if len(sweep.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "tgsweep: finished with %d failed run(s)\n", len(sweep.Failures))
		os.Exit(1)
	}
}
