package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runReport runs the workload o.report times, each in a fresh process with
// the next seed, and prints every end-to-end metric's median, quartiles
// and spreads: the interquartile range and the max-min range, each as a
// share of the median. Bounds in BENCHMARK.json are set from this.
func runReport(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for k := 0; k < o.report; k++ {
		seed := o.seed + int64(k)
		cmd := exec.Command(self,
			"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0",
			"-driserve", o.driserve, "-workdir", o.workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d checks failed", seed, res.Failed, res.Attempted)
		}
		fmt.Printf("seed %d:", seed)
		for _, m := range endToEnd {
			v := res.Metrics[m.name].Value
			values[m.name] = append(values[m.name], v)
			fmt.Printf(" %s=%.4g", m.name, v)
		}
		fmt.Println()
	}
	fmt.Printf("%s over %d runs:\n%-16s %12s %12s %12s %9s %9s\n", o.workload, o.report,
		"metric", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, m := range endToEnd {
		vs := values[m.name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		lo, hi := slices.Min(vs), slices.Max(vs)
		fmt.Printf("%-16s %12.5g %12.5g %12.5g %8.2f%% %8.2f%%  %s\n", m.name, med, q1, q3,
			100*(q3-q1)/med, 100*(hi-lo)/med, m.unit)
	}
	return nil
}

// lastResult decodes the JSON record on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
