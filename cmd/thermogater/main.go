// Command thermogater runs the reproduction's experiments and single
// simulations from the command line.
//
// Regenerate a figure or table of the paper, the six artefacts of the
// full policy sweep (Figs. 7, 9, 10, 11, Table 2 and the Section 6.3
// headline), or everything:
//
//	thermogater -experiment fig9 -duration 500
//	thermogater -experiment table2
//	thermogater -experiment sweep -duration 3000
//	thermogater -experiment all
//
// Run one benchmark under one policy:
//
//	thermogater -run pracVT -bench lu_ncb -duration 1000
//
// Observe where the time goes (see docs/OBSERVABILITY.md):
//
//	thermogater -run pracVT -bench lu_ncb -metrics -metrics-out m.jsonl
//	thermogater -run pracVT -bench lu_ncb -cpuprofile cpu.out
//	thermogater -experiment fig9 -pprof localhost:6060
//
// Inject faults into a single run or into every run of an experiment
// (see docs/ROBUSTNESS.md):
//
//	thermogater -run pracT -bench lu_ncb -faults 'vr-stuck-off@30:unit=12'
//	thermogater -experiment sweep -faults 'sensor-noise@0:value=0.1'
//
// List what is available:
//
//	thermogater -list
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"thermogater/internal/core"
	"thermogater/internal/experiments"
	"thermogater/internal/fault"
	"thermogater/internal/report"
	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to regenerate: fig1,fig2,fig5..fig15,table2,headline,aging,dvfs,sweep,all")
		runPolicy  = flag.String("run", "", "run a single simulation under this policy")
		bench      = flag.String("bench", "lu_ncb", "benchmark for -run")
		profile    = flag.String("profile", "", "JSON workload profile file for -run (overrides -bench)")
		duration   = flag.Int("duration", 0, "run length in ms (0 = full 3000ms region of interest)")
		seed       = flag.Uint64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", 0, "max concurrent runs (0 = GOMAXPROCS)")
		list       = flag.Bool("list", false, "list experiments, policies and benchmarks")
		metrics    = flag.Bool("metrics", false, "enable telemetry; print the metrics summary (counters, per-phase span tree) at exit")
		metricsOut = flag.String("metrics-out", "", "stream telemetry records as JSON lines to this file (per-epoch for -run, per-run for -experiment); implies -metrics")
		metricsCSV = flag.String("metrics-csv", "", "stream the same telemetry records as CSV to this file; implies -metrics")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile at exit to this file")
		faults     = flag.String("faults", "", "fault schedule armed in the -run simulation or in every run of -experiment, e.g. 'vr-stuck-off@30:unit=12;sensor-noise@0:value=0.1' (see docs/ROBUSTNESS.md)")
	)
	flag.Parse()

	if *experiment == "" && *runPolicy == "" && !*list {
		flag.Usage()
		os.Exit(2)
	}
	if err := execute(os.Stdout, os.Stderr, options{
		experiment: strings.ToLower(*experiment),
		runPolicy:  *runPolicy,
		bench:      *bench,
		profile:    *profile,
		duration:   *duration,
		seed:       *seed,
		parallel:   *parallel,
		list:       *list,
		metrics:    *metrics || *metricsOut != "" || *metricsCSV != "",
		metricsOut: *metricsOut,
		metricsCSV: *metricsCSV,
		pprofAddr:  *pprofAddr,
		cpuProf:    *cpuProf,
		memProf:    *memProf,
		faults:     *faults,
	}); err != nil {
		fatal(err)
	}
}

type options struct {
	experiment string
	runPolicy  string
	bench      string
	profile    string
	duration   int
	seed       uint64
	parallel   int
	list       bool
	metrics    bool
	metricsOut string
	metricsCSV string
	pprofAddr  string
	cpuProf    string
	memProf    string
	faults     string
}

// execute parses the fault schedule, wires up observability (telemetry
// registry, pprof endpoints, profile capture), dispatches the requested
// work, and tears everything down in order so deferred cleanups run even
// on error paths. Results go to w, diagnostics to errw.
func execute(w, errw io.Writer, o options) error {
	// A malformed schedule fails here, before any file is created or any
	// run starts.
	sched, err := fault.ParseSchedule(o.faults)
	if err != nil {
		return err
	}
	var reg *telemetry.Registry
	if o.metrics {
		reg = telemetry.NewRegistry()
		for _, out := range []struct {
			path string
			mk   func(io.Writer) telemetry.Sink
		}{
			{o.metricsOut, func(w io.Writer) telemetry.Sink { return telemetry.NewJSONLSink(w) }},
			{o.metricsCSV, func(w io.Writer) telemetry.Sink { return telemetry.NewCSVSink(w) }},
		} {
			if out.path == "" {
				continue
			}
			f, err := os.Create(out.path)
			if err != nil {
				return err
			}
			// Registered before reg.Close below, so LIFO order closes the
			// file only after the registry's final flush — and a short
			// write of the metrics file is reported, not swallowed.
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintln(errw, "thermogater: metrics file:", err)
				}
			}()
			reg.AddSink(out.mk(f))
		}
		defer func() {
			if err := reg.Close(); err != nil {
				fmt.Fprintln(errw, "thermogater: telemetry:", err)
			}
		}()
	}

	if o.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(errw, "thermogater: pprof server:", err)
			}
		}()
		fmt.Fprintf(errw, "pprof: serving on http://%s/debug/pprof/\n", o.pprofAddr)
	}
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(errw, "thermogater: cpu profile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProf != "" {
		defer func() {
			f, err := os.Create(o.memProf)
			if err != nil {
				fmt.Fprintln(errw, "thermogater: heap profile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(errw, "thermogater: heap profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(errw, "thermogater: heap profile:", err)
			}
		}()
	}

	// SIGINT/SIGTERM cancels the work at the next epoch boundary of every
	// run in flight instead of killing the process mid-write, so the
	// telemetry flushes through the deferred close above.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	switch {
	case o.list:
		listAll(w)
	case o.runPolicy != "":
		err = runSingle(ctx, w, reg, sched, o)
	case o.experiment != "":
		opts := experiments.Options{DurationMS: o.duration, Seed: o.seed, Parallel: o.parallel, Telemetry: reg}
		if sched != nil {
			opts.Mutate = func(_ core.PolicyKind, _ workload.Profile, cfg *sim.Config) { cfg.Faults = sched }
		}
		err = runExperiments(ctx, w, errw, o.experiment, opts)
	}
	// An interrupted single run reports the epoch it stopped at and exits
	// 0 so supervisors treat the stop as clean. An interrupted experiment
	// has no complete artefact to show: runExperiments prints no table
	// and fails the command.
	var ce *sim.CancelError
	if errors.As(err, &ce) {
		fmt.Fprintf(errw, "thermogater: interrupted after epoch %d\n", ce.Epoch)
		err = nil
	}
	if err != nil {
		return err
	}
	if reg.Enabled() {
		fmt.Fprintln(w)
		return telemetry.WriteSummary(w, reg.Snapshot())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thermogater:", err)
	os.Exit(1)
}

func listAll(w io.Writer) {
	fmt.Fprintln(w, "experiments: fig1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 table2 headline aging dvfs sweep all")
	fmt.Fprint(w, "policies:   ")
	for _, p := range core.AllPolicies() {
		fmt.Fprintf(w, " %s", p)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "benchmarks: ")
	for _, p := range workload.Suite() {
		fmt.Fprintf(w, " %s", p.Name)
	}
	fmt.Fprintln(w)
}

func runSingle(ctx context.Context, w io.Writer, reg *telemetry.Registry, sched *fault.Schedule, o options) error {
	p, err := core.ParsePolicy(o.runPolicy)
	if err != nil {
		return err
	}
	var prof workload.Profile
	if o.profile != "" {
		f, err := os.Open(o.profile)
		if err != nil {
			return err
		}
		//lint:ignore errsink read-only file: Close cannot lose data and its error carries no signal
		defer f.Close()
		prof, err = workload.ReadProfile(f)
		if err != nil {
			return err
		}
	} else {
		prof, err = workload.ByName(o.bench)
		if err != nil {
			return err
		}
	}
	cfg := sim.DefaultConfig(p, prof)
	cfg.Seed = o.seed
	cfg.Telemetry = reg
	if o.duration > 0 {
		cfg.DurationMS = o.duration
	}
	cfg.Faults = sched
	r, err := sim.New(cfg)
	if err != nil {
		return err
	}
	res, err := r.RunContext(ctx)
	if err != nil {
		return err
	}
	t := &report.Table{
		ID:      "Run",
		Title:   fmt.Sprintf("%s on %s (%d measured epochs)", res.Policy, res.Benchmark, res.Epochs),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("max temperature (°C)", fmt.Sprintf("%.2f at %s", res.MaxTempC, res.MaxTempAt))
	t.AddRow("max thermal gradient (°C)", fmt.Sprintf("%.2f", res.MaxGradientC))
	if res.NoiseModeled {
		t.AddRow("max voltage noise (%Vdd)", fmt.Sprintf("%.2f", res.MaxNoisePct))
		t.AddRow("time in voltage emergencies (%)", fmt.Sprintf("%.4f", res.EmergencyFrac*100))
		t.AddRow("avg conversion loss (W)", fmt.Sprintf("%.2f", res.AvgPlossW))
		t.AddRow("avg conversion efficiency", fmt.Sprintf("%.4f", res.AvgEta))
	}
	t.AddRow("avg chip power (W)", fmt.Sprintf("%.1f", res.AvgChipPowerW))
	if res.ThetaMeanR2 > 0 {
		t.AddRow("theta predictor R²", fmt.Sprintf("%.3f", res.ThetaMeanR2))
	}
	if res.FaultEvents > 0 {
		t.AddRow("fault events fired", fmt.Sprintf("%d", res.FaultEvents))
		t.AddRow("sensor fallbacks", fmt.Sprintf("%d", res.SensorFallbacks))
		t.AddRow("trace-gap frames", fmt.Sprintf("%d", res.TraceGapFrames))
		t.AddRow("thermal fail-safe overrides", fmt.Sprintf("%d", res.ThermalOverrides))
		t.AddRow("demand violations", fmt.Sprintf("%d", res.DemandViolations))
	}
	if res.WatchdogRetries > 0 {
		t.AddRow("thermal watchdog retries", fmt.Sprintf("%d", res.WatchdogRetries))
	}
	return t.Render(w)
}

// sweepSet lists the experiments that share the full policy sweep, in
// the order -experiment sweep renders them.
var sweepSet = []string{"fig7", "fig9", "fig10", "fig11", "table2", "headline"}

// errInterrupted fails an experiment command stopped by SIGINT/SIGTERM.
var errInterrupted = errors.New("interrupted; no tables printed")

// runExperiments renders the experiment which ("sweep" and "all" name
// sets) to w. The sweep banner and every failed sweep cell go to errw.
// The tables are written to w only once every experiment has succeeded:
// a failed cell, a failed experiment or a canceled ctx fails the command
// with no table printed.
func runExperiments(ctx context.Context, w, errw io.Writer, which string, opts experiments.Options) error {
	var out bytes.Buffer
	if err := renderExperiments(ctx, &out, errw, which, opts); err != nil {
		if ctx.Err() != nil {
			return errInterrupted
		}
		return err
	}
	_, err := out.WriteTo(w)
	return err
}

// renderExperiments runs the experiments and renders their tables to w,
// stopping at the first error.
func renderExperiments(ctx context.Context, w, errw io.Writer, which string, opts experiments.Options) error {
	var ids []string
	switch which {
	case "sweep":
		ids = sweepSet
	case "all":
		ids = []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
			"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table2", "headline"}
	default:
		ids = []string{which}
	}
	var sweep *experiments.Sweep
	if slices.ContainsFunc(ids, func(id string) bool { return slices.Contains(sweepSet, id) }) {
		fmt.Fprintln(errw, "running full policy sweep (14 benchmarks × 8 policies)...")
		var err error
		sweep, err = experiments.RunSweepContext(ctx, experiments.SweepPolicies(), opts)
		if sweep != nil {
			for _, f := range sweep.Failures {
				fmt.Fprintln(errw, "thermogater: failed run:", f)
			}
		}
		if err != nil {
			return err
		}
	}
	for _, id := range ids {
		if err := runExperiment(ctx, w, id, opts, sweep); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runExperiment(ctx context.Context, w io.Writer, id string, opts experiments.Options, sweep *experiments.Sweep) error {
	renderFig := func(f *report.Figure, err error) error {
		if err != nil {
			return err
		}
		return f.Render(w)
	}
	renderTab := func(t *report.Table, err error) error {
		if err != nil {
			return err
		}
		return t.Render(w)
	}
	switch id {
	case "fig1":
		return renderFig(experiments.Fig1EfficiencySurvey())
	case "fig2":
		return renderFig(experiments.Fig2MultiPhase())
	case "fig5":
		return renderFig(experiments.Fig5Calibration())
	case "fig6":
		return renderFig(experiments.Fig6ActiveRegulators(ctx, opts))
	case "fig7":
		return renderTab(sweep.Fig7PlossSaving())
	case "fig8":
		return renderFig(experiments.Fig8NaiveProfile(ctx, opts))
	case "fig9":
		return renderTab(sweep.Fig9Tmax())
	case "fig10":
		return renderTab(sweep.Fig10Gradient())
	case "fig11":
		return renderTab(sweep.Fig11VoltageNoise())
	case "fig12":
		frames, err := experiments.Fig12HeatMaps(ctx, opts)
		if err != nil {
			return err
		}
		for _, fr := range frames {
			title := fmt.Sprintf("Fig. 12 (%s): cholesky heat map at Tmax=%.1f°C", fr.Policy, fr.MaxTempC)
			if err := report.RenderHeatMap(w, title, fr.Grid); err != nil {
				return err
			}
		}
		return nil
	case "fig13":
		return renderFig(experiments.Fig13ActivityBins(ctx, opts))
	case "fig14":
		return renderFig(experiments.Fig14NoiseTransient(ctx, opts))
	case "fig15":
		return renderFig(experiments.Fig15LDOvsFIVR(ctx, opts))
	case "table2":
		return renderTab(sweep.Table2Emergencies())
	case "aging":
		return renderTab(experiments.AgingComparison(ctx, "lu_ncb", opts))
	case "dvfs":
		return renderTab(experiments.DVFSComparison(ctx, "raytrace", opts))
	case "headline":
		h, err := sweep.Headline(0.90)
		if err != nil {
			return err
		}
		return h.Table().Render(w)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}
