package tracing

import (
	"sort"
)

// StageStat aggregates every span of one stage name across an analyzed
// record set.
type StageStat struct {
	Stage string `json:"stage"`
	Count int    `json:"count"`
	// Duration percentiles and extrema, milliseconds.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// TotalMS sums every span's duration; SelfMS subtracts child time, so
	// stages that merely contain other stages do not double-count.
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// CritMS is this stage's self time summed along each trace's critical
	// path (root to leaf, always descending into the longest child); the
	// column answers "which stage owns the end-to-end time".
	CritMS float64 `json:"crit_ms"`
	Errors int     `json:"errors"`
}

// SlowTrace summarizes one of the slowest root spans for outlier
// correlation against client-side latency reports.
type SlowTrace struct {
	Trace  string       `json:"trace"`
	Stage  string       `json:"stage"`
	DurMS  float64      `json:"dur_ms"`
	Err    string       `json:"err,omitempty"`
	Stages []StageShare `json:"stages,omitempty"` // direct children, largest first
}

// StageShare is one direct child's contribution to a slow trace.
type StageShare struct {
	Stage string  `json:"stage"`
	DurMS float64 `json:"dur_ms"`
}

// Coverage reports how much of the root spans' time the instrumented
// stages account for: the mean and minimum ratio of direct-child time to
// root time over every root that has children. A mean near 1.0 means the
// stage decomposition explains the end-to-end latency; a low value names
// uninstrumented time.
type Coverage struct {
	Roots    int     `json:"roots"`
	MeanFrac float64 `json:"mean_frac"`
	MinFrac  float64 `json:"min_frac"`
}

// Analysis is ccrp-spans' aggregation of a span record set.
type Analysis struct {
	Spans    int         `json:"spans"`
	Traces   int         `json:"traces"`
	Roots    int         `json:"roots"`
	Stages   []StageStat `json:"stages"` // descending by critical-path time
	Coverage Coverage    `json:"coverage"`
	Slowest  []SlowTrace `json:"slowest,omitempty"`
}

// node is one span during tree reconstruction.
type node struct {
	rec      Record
	children []*node
}

// Analyze reconstructs span trees from flat records and aggregates
// per-stage latency, self-time, critical-path attribution, coverage, and
// the topN slowest traces. Orphan spans (parent never seen — a truncated
// file, or a child that outlived its root) are treated as roots of their
// own subtree so their time is still attributed.
func Analyze(recs []Record, topN int) *Analysis {
	a := &Analysis{Spans: len(recs)}
	byID := make(map[string]*node, len(recs))
	traces := make(map[string]bool)
	nodes := make([]*node, 0, len(recs))
	for _, r := range recs {
		n := &node{rec: r}
		// Span-id collisions across concatenated files would corrupt the
		// tree; last record wins, matching JSONL append order.
		byID[r.Span] = n
		nodes = append(nodes, n)
		traces[r.Trace] = true
	}
	a.Traces = len(traces)

	var roots []*node
	for _, n := range nodes {
		if p, ok := byID[n.rec.Parent]; ok && n.rec.Parent != "" && p != n {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	a.Roots = len(roots)

	stats := make(map[string]*stageAgg)
	agg := func(stage string) *stageAgg {
		s, ok := stats[stage]
		if !ok {
			s = &stageAgg{}
			stats[stage] = s
		}
		return s
	}
	for _, n := range nodes {
		s := agg(n.rec.Stage)
		s.durs = append(s.durs, n.rec.DurNS)
		s.self += selfNS(n)
		if n.rec.Err != "" {
			s.errors++
		}
	}

	// Critical path: from each root, descend into the longest child,
	// crediting each visited span's self time to its stage.
	for _, r := range roots {
		n := r
		for {
			agg(n.rec.Stage).crit += selfNS(n)
			next := longestChild(n)
			if next == nil {
				break
			}
			n = next
		}
	}

	// Coverage over roots with children.
	minFrac, sumFrac := 0.0, 0.0
	covered := 0
	for _, r := range roots {
		if len(r.children) == 0 || r.rec.DurNS <= 0 {
			continue
		}
		var child int64
		for _, c := range r.children {
			child += c.rec.DurNS
		}
		frac := float64(child) / float64(r.rec.DurNS)
		if covered == 0 || frac < minFrac {
			minFrac = frac
		}
		sumFrac += frac
		covered++
	}
	a.Coverage.Roots = covered
	if covered > 0 {
		a.Coverage.MeanFrac = sumFrac / float64(covered)
		a.Coverage.MinFrac = minFrac
	}

	for stage, s := range stats {
		sort.Slice(s.durs, func(i, j int) bool { return s.durs[i] < s.durs[j] })
		var total int64
		for _, d := range s.durs {
			total += d
		}
		a.Stages = append(a.Stages, StageStat{
			Stage:   stage,
			Count:   len(s.durs),
			P50MS:   pctMS(s.durs, 0.50),
			P95MS:   pctMS(s.durs, 0.95),
			P99MS:   pctMS(s.durs, 0.99),
			MaxMS:   float64(s.durs[len(s.durs)-1]) / 1e6,
			TotalMS: float64(total) / 1e6,
			SelfMS:  float64(s.self) / 1e6,
			CritMS:  float64(s.crit) / 1e6,
			Errors:  s.errors,
		})
	}
	sort.Slice(a.Stages, func(i, j int) bool {
		if a.Stages[i].CritMS != a.Stages[j].CritMS {
			return a.Stages[i].CritMS > a.Stages[j].CritMS
		}
		return a.Stages[i].Stage < a.Stages[j].Stage
	})

	if topN > 0 {
		sort.Slice(roots, func(i, j int) bool { return roots[i].rec.DurNS > roots[j].rec.DurNS })
		for _, r := range roots[:min(topN, len(roots))] {
			st := SlowTrace{
				Trace: r.rec.Trace,
				Stage: r.rec.Stage,
				DurMS: r.rec.DurMS(),
				Err:   r.rec.Err,
			}
			kids := append([]*node(nil), r.children...)
			sort.Slice(kids, func(i, j int) bool { return kids[i].rec.DurNS > kids[j].rec.DurNS })
			for _, c := range kids {
				st.Stages = append(st.Stages, StageShare{Stage: c.rec.Stage, DurMS: c.rec.DurMS()})
			}
			a.Slowest = append(a.Slowest, st)
		}
	}
	return a
}

// stageAgg accumulates one stage during analysis.
type stageAgg struct {
	durs   []int64
	self   int64
	crit   int64
	errors int
}

// selfNS is a span's duration minus its direct children's, floored at
// zero (clock skew between goroutines can make child sums exceed the
// parent by nanoseconds).
func selfNS(n *node) int64 {
	self := n.rec.DurNS
	for _, c := range n.children {
		self -= c.rec.DurNS
	}
	if self < 0 {
		self = 0
	}
	return self
}

// longestChild picks the critical-path successor.
func longestChild(n *node) *node {
	var best *node
	for _, c := range n.children {
		if best == nil || c.rec.DurNS > best.rec.DurNS {
			best = c
		}
	}
	return best
}

// pctMS reads the p-th percentile of ascending nanosecond durations, in
// milliseconds (nearest-rank on the sorted slice).
func pctMS(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / 1e6
}
