package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// valuesOf collects one metric of one workload over a side's runs.
func valuesOf(recs []record, workload, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// summary is the median of a side's runs and their spread: the distance
// between the first and third quartile as a share of the median, the
// measure the benchmark's acceptance rule uses. One run has no spread.
func summary(v []float64) (med, spread float64) {
	if len(v) == 1 {
		return v[0], 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 != 0 {
		spread = (q3 - q1) / math.Abs(q2)
	}
	return q2, spread
}

// verdict judges side B against side A for one metric. worse is B's
// change in the bad direction as a share of A's median.
func verdict(a, b []float64, better string, bound float64) (worse float64, v string) {
	medA, spreadA := summary(a)
	medB, _ := summary(b)
	if medA == 0 {
		return 0, "unresolved"
	}
	worse = (medB - medA) / math.Abs(medA)
	sign := 1.0
	if better == "higher" {
		worse, sign = -worse, -1
	}
	if spreadA > bound {
		// A's own runs disagree by more than the bound, so a difference of
		// that size means nothing — unless every run of B beats every run
		// of A.
		for _, x := range b {
			for _, y := range a {
				if sign*x >= sign*y {
					return worse, "unresolved"
				}
			}
		}
		return worse, "ok"
	}
	if worse > bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// runCompare prints, per workload and end-to-end metric, both sides'
// medians, B/A with its base, A's own spread, the bound from the spec,
// and a verdict. It fails when any pairing regressed.
func runCompare(w io.Writer, specPath string, files []string) error {
	if len(files) != 2 {
		return errors.New("-compare needs two -out files: A (the base) and B")
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(files[0])
	if err != nil {
		return err
	}
	b, err := readRecords(files[1])
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "A spread", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, spreadA := summary(va)
			medB, _ := summary(vb)
			_, v := verdict(va, vb, m.Better, m.Bound)
			if v == "regressed" {
				regressed++
			}
			ratio := 0.0
			if medA != 0 {
				ratio = medB / medA
			}
			fmt.Fprintf(w, "%-20s %-16s %14.4f %14.4f %9.4f %8.2f%% %6.1f%%  %s (%d vs %d runs, %s is better)\n",
				wl.Name, m.Name, medA, medB, ratio, 100*spreadA, 100*m.Bound, v, len(va), len(vb), m.Better)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d pairings of workload and metric regressed", regressed)
	}
	return nil
}
