package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of compare, for one end-to-end metric on one workload.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictNotJudged  = "not judged"
)

// bound is how far a metric may move before compare calls it worse: a
// share of the base median, but never less than floor, in the metric's
// own unit.
type bound struct {
	share       float64
	floor       float64
	lowerBetter bool
}

// limit is the bound as an amount in the metric's unit, for a base median.
func (b bound) limit(base float64) float64 { return max(b.share*math.Abs(base), b.floor) }

// boundFor looks a metric's bound up in BENCHMARK.json and adds the
// floors the file cannot hold, since its bounds are shares of the base.
// setup_s never has to resolve less than 0.01 s: a start-up of a few
// milliseconds jitters by more than a tenth of itself. error_ratio is not
// registered, because a healthy run reads 0; its bound is an absolute
// 0.001. The timing metrics are not registered because they do not repeat
// within a tenth on a shared host (see README.md); they are printed, not
// judged.
func boundFor(bf *benchFile, name string) (bound, bool) {
	if name == "error_ratio" {
		return bound{floor: 0.001, lowerBetter: true}, true
	}
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			b := bound{share: m.Bound, lowerBetter: m.Better == "lower"}
			if name == "setup_s" {
				b.floor = 0.01
			}
			return b, true
		}
	}
	return bound{}, false
}

// judge compares head against base. A metric is unresolved when the two
// trial spreads overlap and either is wider than the bound: the runs
// cannot tell a change from noise. Otherwise the median's move in the
// bad direction decides, against the bound.
func judge(base, head summary, b bound) string {
	limit := b.limit(base.Value)
	worse := head.Value - base.Value
	if !b.lowerBetter {
		worse = -worse
	}
	overlap := head.Min <= base.Max && base.Min <= head.Max
	switch {
	case overlap && (base.Max-base.Min > limit || head.Max-head.Min > limit):
		return verdictUnresolved
	case worse > limit:
		return verdictWorse
	case worse < -limit:
		return verdictBetter
	}
	return verdictWithin
}

// compare prints one row per workload and end-to-end metric present in
// both files and reports how many rows are worse. A metric without a
// bound is printed as "not judged".
func compare(w io.Writer, bf *benchFile, base, head *resultsFile) (worse int) {
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		if _, ok := head.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "base %s (%s, %d trials) vs head %s (%s, %d trials)\n",
		base.Label, base.Host.CPUModel, base.Trials, head.Label, head.Host.CPUModel, head.Trials)
	fmt.Fprintf(w, "%-17s %-17s %28s %28s %9s  %s\n", "workload", "metric", "base [min-max]", "head [min-max]", "change", "verdict")
	for _, name := range names {
		bm, hm := base.Workloads[name].Metrics, head.Workloads[name].Metrics
		for _, def := range e2eDefs {
			bs, ok1 := bm[def.name]
			hs, ok2 := hm[def.name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdictNotJudged
			if b, ok := boundFor(bf, def.name); ok {
				v = judge(bs, hs, b)
			}
			if v == verdictWorse {
				worse++
			}
			change := fmt.Sprintf("%+8.4f ", hs.Value-bs.Value)
			if bs.Value != 0 {
				change = fmt.Sprintf("%+8.2f%%", 100*(hs.Value-bs.Value)/math.Abs(bs.Value))
			}
			fmt.Fprintf(w, "%-17s %-17s %28s %28s %9s  %s\n", name, def.name, span3(bs), span3(hs), change, v)
		}
	}
	return worse
}

func span3(s summary) string {
	return fmt.Sprintf("%.4g [%.4g-%.4g] %s", s.Value, s.Min, s.Max, s.Unit)
}
