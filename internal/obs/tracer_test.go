package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	rec := NewFlightRecorder(16)
	tr := NewTracer(rec)

	root := tr.StartSpan("root")
	root.SetAttr("workflow", "demo")
	child := root.StartChild("child")
	child.SetInt("ops", 15)
	grand := child.StartChild("grand")
	grand.SetFloat("cost", 0.125)
	grand.End()
	child.End()
	root.End()

	spans := rec.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	// Spans land in end order: grand, child, root.
	g, c, r := spans[0], spans[1], spans[2]
	if g.Name != "grand" || c.Name != "child" || r.Name != "root" {
		t.Fatalf("span order = %s,%s,%s", g.Name, c.Name, r.Name)
	}
	if r.Parent != 0 {
		t.Errorf("root has parent %d", r.Parent)
	}
	if c.Parent != r.ID || g.Parent != c.ID {
		t.Errorf("parent chain broken: grand.Parent=%d child.ID=%d child.Parent=%d root.ID=%d",
			g.Parent, c.ID, c.Parent, r.ID)
	}
	if g.Trace != r.ID || c.Trace != r.ID {
		t.Errorf("trace ids differ: %d %d %d", g.Trace, c.Trace, r.Trace)
	}
	if v, ok := c.Attr("ops"); !ok || v != "15" {
		t.Errorf("child ops attr = %q, %v", v, ok)
	}
	if v, ok := g.Attr("cost"); !ok || v != "0.125" {
		t.Errorf("grand cost attr = %q, %v", v, ok)
	}
	if g.Dur < 0 || c.Dur < g.Dur || r.Dur < c.Dur {
		t.Errorf("durations not nested: %d %d %d", g.Dur, c.Dur, r.Dur)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	rec := NewFlightRecorder(4)
	tr := NewTracer(rec)
	sp := tr.StartSpan("once")
	sp.End()
	sp.End()
	sp.End()
	if got := rec.Len(); got != 1 {
		t.Fatalf("recorded %d spans after triple End, want 1", got)
	}
}

func TestJSONLExporter(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(nil, NewJSONLExporter(&buf))
	sp := tr.StartSpan("exported")
	sp.SetAttr("k", "v")
	sp.End()

	line := strings.TrimSpace(buf.String())
	var rec SpanRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("unmarshal %q: %v", line, err)
	}
	if rec.Name != "exported" {
		t.Errorf("name = %q", rec.Name)
	}
	if v, ok := rec.Attr("k"); !ok || v != "v" {
		t.Errorf("attr k = %q, %v", v, ok)
	}
}

func TestAddExporter(t *testing.T) {
	var a, b bytes.Buffer
	tr := NewTracer(nil, NewJSONLExporter(&a))
	tr.StartSpan("first").End()
	tr.AddExporter(NewJSONLExporter(&b))
	tr.StartSpan("second").End()

	if got := strings.Count(a.String(), "\n"); got != 2 {
		t.Errorf("first exporter saw %d spans, want 2", got)
	}
	if got := strings.Count(b.String(), "\n"); got != 1 {
		t.Errorf("added exporter saw %d spans, want 1", got)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	if tr.Recorder() != nil {
		t.Fatal("nil tracer has a recorder")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("off")
		sp.SetAttr("k", "v")
		sp.SetInt("n", 42)
		sp.SetFloat("f", 3.14)
		child := sp.StartChild("child")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkObsDisabledSpan measures the full disabled-tracer span
// lifecycle — the overhead instrumented code pays when tracing is off.
func BenchmarkObsDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("off")
		sp.SetInt("n", int64(i))
		sp.StartChild("child").End()
		sp.End()
	}
}

// BenchmarkObsEnabledSpan is the enabled-path counterpart, for the
// overhead budget in DESIGN.md.
func BenchmarkObsEnabledSpan(b *testing.B) {
	tr := NewTracer(NewFlightRecorder(DefaultFlightSize))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("on")
		sp.SetInt("n", int64(i))
		sp.End()
	}
}
