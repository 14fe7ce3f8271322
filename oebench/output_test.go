package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// The metric tables in the program and BENCHMARK.json must agree, and
// the result line must parse back into exactly BENCHMARK.json's names.
func TestOutputParsesIntoBenchmarkNames(t *testing.T) {
	f := readBenchFile(t)
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for _, w := range f.Workloads {
		spec, ok := findWorkload(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
			continue
		}
		if spec.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says why %q, the program %q", w.Name, w.Why, spec.why)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}

	for _, tc := range []struct {
		defs []metricDef
		want []string
	}{
		{endToEnd, namesOf(f.EndToEnd)},
		{perLayer, namesOf(f.PerLayer)},
	} {
		res := result{correct: true, attempted: 3, defs: tc.defs, metrics: map[string]metricValue{}}
		for i, d := range tc.defs {
			res.metrics[d.name] = metricValue{value: float64(i) + 0.125, n: 1}
		}
		line, err := formatResult(res)
		if err != nil {
			t.Fatal(err)
		}
		var back jsonResult
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("result line does not parse: %v\n%s", err, line)
		}
		var got []string
		for name, m := range back.Metrics {
			got = append(got, name)
			if m.Unit == "" {
				t.Errorf("metric %s has no unit", name)
			}
		}
		sort.Strings(got)
		sort.Strings(tc.want)
		if len(got) != len(tc.want) {
			t.Fatalf("parsed %d metric names, BENCHMARK.json has %d", len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parsed name %q, BENCHMARK.json has %q", got[i], tc.want[i])
			}
		}
	}
}

func namesOf[T any](ms []T) []string {
	var out []string
	for _, m := range ms {
		b, _ := json.Marshal(m)
		var n struct{ Name string }
		_ = json.Unmarshal(b, &n)
		out = append(out, n.Name)
	}
	return out
}

func TestChromeTraceRoundTrips(t *testing.T) {
	spans := []span{
		{layer: layerCluster, op: opPull, phase: phaseWindow, node: -1, keys: 8, batch: 3, start: 1000, end: 9000},
		{layer: layerEngine, op: opPull, phase: phaseWindow, node: 1, keys: 4, batch: 3, start: 2000, end: 5000},
	}
	path := t.TempDir() + "/trace.json"
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	c, e := doc.TraceEvents[0], doc.TraceEvents[1]
	if c.Name != "cluster.pull" || c.Pid != 0 || c.Dur != 8 || e.Name != "engine.pull" || e.Pid != 2 || e.Ts != 2 {
		t.Errorf("events = %+v, %+v", c, e)
	}
}
