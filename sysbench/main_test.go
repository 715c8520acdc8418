package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return s
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		pct, v  float64
		ok      bool
	}{
		{"20 samples support only the median", seq(20), 50, 10, true},
		{"19 samples support nothing", seq(19), 0, 0, false},
		{"40 samples support p75", seq(40), 75, 30, true},
		{"100 samples support p90", seq(100), 90, 90, true},
		{"199 samples still p90", seq(199), 90, 180, true},
		{"200 samples support p95", seq(200), 95, 190, true},
		{"1000 samples support p99", seq(1000), 99, 990, true},
		{"10000 samples support p99.9", seq(10000), 99.9, 9990, true},
		{"ties are not beyond", append(make([]float64, 14), 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2), 0, 0, false},
		{"empty", nil, 0, 0, false},
	}
	for _, c := range cases {
		pct, v, n, ok := tail(c.samples)
		if pct != c.pct || v != c.v || ok != c.ok || n != len(c.samples) {
			t.Errorf("%s: tail = (%v, %v, %d, %v), want (%v, %v, %d, %v)",
				c.name, pct, v, n, ok, c.pct, c.v, len(c.samples), c.ok)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := validate(append(append([]spec(nil), endToEnd...), perLayer...)); err != nil {
		t.Fatalf("declared metrics: %v", err)
	}
	good := spec{"a.b_c-1", "ms", "lower"}
	bad := []spec{
		{"", "ms", "lower"},
		{"a b", "ms", "lower"},
		{"_a", "ms", "lower"},
		{".a", "ms", "lower"},
		{"a/b", "ms", "lower"},
		{"a:b", "ms", "lower"},
		{strings.Repeat("a", 65), "ms", "lower"},
		{"a", "", "lower"},
		{"a", "m s", "lower"},
		{"a", strings.Repeat("s", 17), "lower"},
		{"a", "ms", "less"},
	}
	if err := validate([]spec{good, {strings.Repeat("a", 64), "1/s", "higher"}}); err != nil {
		t.Errorf("valid specs rejected: %v", err)
	}
	for _, s := range bad {
		if validate([]spec{s}) == nil {
			t.Errorf("validate accepted %+v", s)
		}
	}
	if validate([]spec{good, good}) == nil {
		t.Error("validate accepted a duplicate name")
	}
}

func TestEncodeRefusesMismatchedSets(t *testing.T) {
	specs := []spec{{"a", "ms", "lower"}, {"b", "s", "lower"}}
	if _, err := encode(specs, map[string]float64{"a": 1}, 1, 0); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := encode(specs, map[string]float64{"a": 1, "b": 2, "c": 3}, 1, 0); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := encode(specs, map[string]float64{"a": 1, "b": math.NaN()}, 1, 0); err == nil {
		t.Error("NaN accepted")
	}
	line, err := encode(specs, map[string]float64{"a": 1.25, "b": 2}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":false,"attempted":3,"failed":1,"metrics":{"a":{"value":1.25,"unit":"ms"},"b":{"value":2,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("encode = %s, want %s", line, want)
	}
}

// manifest is the part of BENCHMARK.json the command must agree with.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesDeclaredMetrics(t *testing.T) {
	m := readManifest(t)
	var e2e []spec
	for _, e := range m.EndToEnd {
		e2e = append(e2e, spec{e.Name, e.Unit, e.Better})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, command reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, command reports %v", m.PerLayer, perLayer)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !reflect.DeepEqual(names, got) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, got)
	}
}

// TestCommandPrintsEveryMetric runs every workload in both modes for the
// shortest window and checks the result line names exactly the metrics
// BENCHMARK.json declares, with their units, and passes the gate.
func TestCommandPrintsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		if testing.Short() && w.Name != "serve-f16" {
			continue
		}
		for trace, specs := range map[string][]spec{"0": endToEnd, "1": perLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if !strings.Contains(lines[0], "seed=7 ") {
				t.Errorf("%s trace %s: first line %q does not record the seed", w.Name, trace, lines[0])
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				if v, ok := res.Metrics[s.Name]; !ok || v.Unit != s.Unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want unit %s", w.Name, trace, s.Name, v, ok, s.Unit)
				}
			}
		}
	}
}

func TestUsageErrorsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-f16", "--trace", "2"},
		{"--workload", "serve-f16", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want non-zero and no output", args, code, stdout.String())
		}
	}
}
