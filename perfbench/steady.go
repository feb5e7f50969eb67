package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadiness runs the workload n times, each in its own process on seeds
// seed..seed+n-1, and prints each end-to-end metric's quartile spread (the
// interquartile distance as a share of the median, by Python's
// statistics.quantiles) next to its bound. A metric whose spread exceeds
// its bound is flagged and makes the exit status 1; one above a third of
// its bound is marked, since a benchmark is only steady with that margin.
// setup_s's spread is shown but, like the acceptance rule, not gated.
func steadiness(name string, seed uint64, seconds, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		rep, perr := lastReport(out)
		if err == nil {
			err = perr
		}
		if err == nil && !rep.Correct {
			err = fmt.Errorf("run not correct (%d of %d failed)", rep.Failed, rep.Attempted)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n%s", name, s, err, stderr.String())
			return 1
		}
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
		}
		fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, s, compact(rep))
	}
	status := 0
	fmt.Printf("%s, %d runs of %d s\n%-22s %12s %12s %12s %8s %6s\n", name, n, seconds, "metric", "q1", "median", "q3", "spread", "bound")
	for _, d := range endToEnd {
		xs := values[d.Name]
		q1, q3 := quartiles(xs)
		sp := spread(xs)
		flag := ""
		switch {
		case d.Name == "setup_s":
			flag = "(spread not gated)"
		case sp > d.Bound:
			flag = "OVER BOUND"
			status = 1
		case sp > d.Bound/3:
			flag = "over a third of the bound"
		}
		fmt.Printf("%-22s %12.4f %12.4f %12.4f %8.4f %6.2f %s\n", d.Name, q1, median(xs), q3, sp, d.Bound, flag)
	}
	return status
}

// lastReport parses the result line: the last line of a run's stdout.
func lastReport(out []byte) (report, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("parsing result line: %w", err)
	}
	return rep, nil
}

func compact(rep report) string {
	var parts []string
	for _, d := range endToEnd {
		parts = append(parts, fmt.Sprintf("%s=%.4g", d.Name, rep.Metrics[d.Name].Value))
	}
	return strings.Join(parts, " ")
}
