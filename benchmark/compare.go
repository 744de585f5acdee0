package main

import (
	"errors"
	"fmt"
	"math"
)

// verdict is one workload × metric judged against its bound.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved" // the runs spread wider than the bound: no call
)

// worsening is how much of the base the candidate lost, as a share of the
// base: positive is worse, whichever direction the metric improves in.
func worsening(base, cand float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

func judge(base, cand spread, def metricDef) verdict {
	if math.Max(base.iqrShare(), cand.iqrShare()) > def.Bound {
		return verdictUnresolved
	}
	if worsening(base.Median, cand.Median, def.Better) > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareSets prints, per workload × end-to-end metric, both medians, the
// ratio with its base, the bound and the verdict, then the failed share of
// operations. It fails when anything regressed.
func compareSets(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two set files: base, then candidate")
	}
	var base, cand resultSet
	if err := readJSON(paths[0], &base); err != nil {
		return err
	}
	if err := readJSON(paths[1], &cand); err != nil {
		return err
	}
	bf, err := readBenchmarkFile(benchmarkFilePath)
	if err != nil {
		return fmt.Errorf("bounds: %w", err)
	}
	if base.Env != cand.Env {
		fmt.Printf("note: environments differ\n  base      %+v\n  candidate %+v\n", base.Env, cand.Env)
	}
	regressed := 0
	for _, w := range bf.Workloads {
		b, c := base.Workloads[w.Name], cand.Workloads[w.Name]
		if b == nil || c == nil {
			return fmt.Errorf("workload %s is missing from a set", w.Name)
		}
		fmt.Printf("%s  (runs: base %d, candidate %d)\n", w.Name, len(b.Runs), len(c.Runs))
		for _, def := range bf.EndToEnd {
			bs, cs := b.Metrics[def.Name], c.Metrics[def.Name]
			v := judge(bs, cs, def)
			if v == verdictRegressed {
				regressed++
			}
			ratio := 0.0
			if bs.Median != 0 {
				ratio = cs.Median / bs.Median
			}
			fmt.Printf("  %-14s %12.4f -> %12.4f %-8s  x%.4f of base %.4f  spread %.3f/%.3f  bound %.2f (%s is better)  %s\n",
				def.Name, bs.Median, cs.Median, def.Unit, ratio, bs.Median, bs.iqrShare(), cs.iqrShare(), def.Bound, def.Better, v)
		}
		fmt.Printf("  failed share   base %d/%d  candidate %d/%d\n", b.Failed, b.Attempted, c.Failed, c.Attempted)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
