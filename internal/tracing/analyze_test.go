package tracing

import (
	"fmt"
	"testing"
	"time"
)

// analyzerFixture is two request trees with fixed start times and
// durations, emitted children first as a tracer does, so every
// aggregate is checkable by hand: each root holds a decode_body and a
// longer compress child, and spends 5 ms on its own.
func analyzerFixture() []Record {
	const ms = int64(time.Millisecond)
	var recs []Record
	for i, c := range []struct{ root, decode, compress int64 }{
		{100 * ms, 10 * ms, 85 * ms},
		{50 * ms, 5 * ms, 40 * ms},
	} {
		trace := fmt.Sprintf("t%d", i)
		root, start := trace+"-request", int64(i)*200*ms
		recs = append(recs,
			Record{Trace: trace, Span: trace + "-decode", Parent: root, Stage: "decode_body", StartNS: start, DurNS: c.decode},
			Record{Trace: trace, Span: trace + "-compress", Parent: root, Stage: "compress", StartNS: start + c.decode, DurNS: c.compress},
			Record{Trace: trace, Span: root, Stage: "request", StartNS: start, DurNS: c.root},
		)
	}
	return recs
}

func TestAnalyzeStageAttribution(t *testing.T) {
	a := Analyze(analyzerFixture(), 1)
	if a.Spans != 6 || a.Traces != 2 || a.Roots != 2 {
		t.Fatalf("spans/traces/roots = %d/%d/%d, want 6/2/2", a.Spans, a.Traces, a.Roots)
	}
	byStage := map[string]StageStat{}
	for _, s := range a.Stages {
		byStage[s.Stage] = s
	}
	// Leaf spans: self == total; the critical path passes through
	// compress in both traces, so crit == total too.
	cmp := byStage["compress"]
	if cmp.Count != 2 || cmp.TotalMS != 125 || cmp.SelfMS != 125 || cmp.CritMS != 125 {
		t.Errorf("compress count/total/self/crit = %d/%g/%g/%g, want 2/125/125/125",
			cmp.Count, cmp.TotalMS, cmp.SelfMS, cmp.CritMS)
	}
	// decode_body never sits on the critical path (compress is always
	// longer).
	if dec := byStage["decode_body"]; dec.CritMS != 0 {
		t.Errorf("decode_body crit = %g, want 0", dec.CritMS)
	}
	// The request root's self time is root minus children: 5 ms twice.
	if req := byStage["request"]; req.SelfMS != 10 {
		t.Errorf("request self = %g ms, want 10", req.SelfMS)
	}
	// Stages sort descending by critical-path ownership: compress first.
	if a.Stages[0].Stage != "compress" {
		t.Errorf("stage order = %q first, want compress", a.Stages[0].Stage)
	}

	// Coverage: (95/100 + 45/50) / 2 = 0.925.
	if a.Coverage.Roots != 2 {
		t.Fatalf("coverage roots = %d, want 2", a.Coverage.Roots)
	}
	if a.Coverage.MeanFrac != 0.925 {
		t.Errorf("coverage mean = %g, want 0.925", a.Coverage.MeanFrac)
	}

	if len(a.Slowest) != 1 || a.Slowest[0].DurMS != 100 {
		t.Fatalf("slowest = %+v, want the 100ms trace", a.Slowest)
	}
	if a.Slowest[0].Stages[0].Stage != "compress" {
		t.Errorf("slowest breakdown leads with %q, want compress", a.Slowest[0].Stages[0].Stage)
	}
}

func TestAnalyzeOrphansBecomeRoots(t *testing.T) {
	recs := []Record{
		{Trace: "t1", Span: "a", Parent: "missing", Stage: "compress", DurNS: int64(time.Millisecond)},
	}
	a := Analyze(recs, 0)
	if a.Roots != 1 {
		t.Fatalf("orphan roots = %d, want 1", a.Roots)
	}
	if a.Stages[0].Stage != "compress" || a.Stages[0].CritMS == 0 {
		t.Error("orphan span lost its attribution")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil, 5)
	if a.Spans != 0 || len(a.Stages) != 0 || len(a.Slowest) != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
}
