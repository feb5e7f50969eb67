// Command perfbench is the repository's benchmark: three closed-loop
// workloads over tgserve (svc-short, svc-long) and experiments.RunSweep
// (sweep-grid), timed from outside the packages they exercise, with every
// timed output checked. See README.md for the workloads, the metrics and
// the rules a performance claim follows.
//
//	bash perfbench/run.sh --workload svc-short --seed 1 --seconds 10 --trace 0
//
// prints a human-readable summary on stderr and, as the last line of
// stdout, {"correct":…,"attempted":…,"failed":…,"metrics":{…}}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --steady 5 --workload svc-long --seconds 10
//
// runs the workload five times on seeds 1..5 and prints each end-to-end
// metric's quartile spread next to its bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	steady := flag.Int("steady", 0, "run the workload this many times on consecutive seeds and report each end-to-end metric's spread")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *steady > 0 {
		os.Exit(steadiness(*name, *seed, *seconds, *steady))
	}
	if err := benchmark(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(name string, seed uint64, window time.Duration, trace bool) error {
	o, err := run(name, seed, window, trace)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	rep, err := buildReport(defs, o.values, o.attempted, o.failed, o.failed == 0 && len(o.problems) == 0)
	if err != nil {
		return err
	}
	line, err := rep.line()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d, %v window, trace %v\n", name, seed, window, trace)
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "  NOT CORRECT: "+p)
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Println(line)
	return nil
}
