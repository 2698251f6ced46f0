package experiment

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/selective"
)

// distinctRuns lists, independently of the producers' code, every
// (options, I-cache size) configuration that Table 3, both Figure 4
// sweeps and Figure 5 simulate for one benchmark, deduplicated by key.
func distinctRuns(t *testing.T, st *benchState) map[string]bool {
	t.Helper()
	keys := make(map[string]bool)
	schemes := []program.Scheme{program.SchemeDict, program.SchemeCodePack}
	for _, scheme := range schemes {
		for _, rf := range []bool{false, true} {
			for _, kb := range Fig4CacheSizes { // includes Table 3's 16KB
				keys[runKey(core.Options{Scheme: scheme, ShadowRF: rf}, kb)] = true
			}
		}
	}
	prof := st.profileAt(16)
	if prof == nil {
		t.Fatal("no 16KB native profile")
	}
	for _, scheme := range schemes {
		for _, policy := range []selective.Policy{selective.ByExecution, selective.ByMisses} {
			for _, th := range append([]float64{0}, selective.Thresholds...) {
				sel := selective.Select(prof, policy, th)
				if len(sel) >= len(st.image.Procs) {
					continue
				}
				keys[runKey(core.Options{Scheme: scheme, ShadowRF: true, NativeProcs: sel}, 16)] = true
			}
		}
	}
	return keys
}

// TestSuiteRunsEachConfigurationOnce checks that the paper reproduction
// simulates each distinct configuration once: repeats across tables and
// figures, and whole repeated producers, are served from the run memo,
// while MeasureRun always simulates afresh.
func TestSuiteRunsEachConfigurationOnce(t *testing.T) {
	s := NewSuite(0.02)
	s.Only = []string{"go"}
	s.Workers = 4
	steps := []struct {
		name string
		run  func() error
	}{
		{"Table2", func() error { _, err := s.Table2(); return err }},
		{"Table3", func() error { _, err := s.Table3(); return err }},
		{"Figure4(dict)", func() error { _, err := s.Figure4(program.SchemeDict); return err }},
		{"Figure4(codepack)", func() error { _, err := s.Figure4(program.SchemeCodePack); return err }},
		{"Figure5", func() error { _, err := s.Figure5(); return err }},
		{"Compare", func() error { _, err := s.Compare(); return err }},
	}
	for _, step := range steps {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
	_, st, err := s.namedState("go")
	if err != nil {
		t.Fatal(err)
	}
	runs := distinctRuns(t, st)
	want := int64(len(runs) + len(Fig4CacheSizes)) // plus one native baseline per cache size
	if got := s.sims.Load(); got != want {
		t.Fatalf("simulations = %d, want %d distinct runs + %d native baselines = %d",
			got, len(runs), len(Fig4CacheSizes), want)
	}
	if len(st.runs) != len(runs) {
		t.Errorf("run memo holds %d outcomes, want %d", len(st.runs), len(runs))
	}

	for _, step := range []int{1, 5} { // Table3, Compare
		before := s.sims.Load()
		if err := steps[step].run(); err != nil {
			t.Fatal(err)
		}
		if d := s.sims.Load() - before; d != 0 {
			t.Errorf("repeated %s ran %d simulations, want 0", steps[step].name, d)
		}
	}

	for i := 1; i <= 2; i++ {
		before := s.sims.Load()
		if _, err := s.MeasureRun("go", core.Options{Scheme: program.SchemeDict, ShadowRF: true}, 16); err != nil {
			t.Fatal(err)
		}
		if d := s.sims.Load() - before; d != 1 {
			t.Errorf("MeasureRun call %d ran %d simulations, want 1", i, d)
		}
	}
}

// TestSuiteConcurrentCallersShareRuns checks that concurrent callers of
// one configuration share a single simulation (run under -race).
func TestSuiteConcurrentCallersShareRuns(t *testing.T) {
	s := NewSuite(0.02)
	s.Only = []string{"go"}
	s.Workers = 4
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Table3()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.sims.Load(), int64(1+4); got != want {
		t.Fatalf("simulations = %d, want 1 native + 4 configurations = %d", got, want)
	}
}

// TestCompressedKeyCoversOptions checks that options differing only in
// fields that change the result are cached apart: Order changes the
// image, Lint changes whether the Result carries findings.
func TestCompressedKeyCoversOptions(t *testing.T) {
	s := NewSuite(0.02)
	_, st, err := s.namedState("go")
	if err != nil {
		t.Fatal(err)
	}
	base := core.Options{Scheme: program.SchemeDict, ShadowRF: true}
	ordered := base
	for i := len(st.image.Procs) - 1; i >= 0; i-- {
		ordered.Order = append(ordered.Order, st.image.Procs[i].Name)
	}
	linted := base
	linted.Lint = true

	encode := func(opts core.Options) ([]byte, *core.Result) {
		t.Helper()
		r, err := s.compressed(st, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := program.Encode(r.Image)
		if err != nil {
			t.Fatal(err)
		}
		return b, r
	}
	plain, plainRes := encode(base)
	reordered, _ := encode(ordered)
	if bytes.Equal(plain, reordered) {
		t.Error("options differing only in Order gave the same image")
	}
	_, lintRes := encode(linted)
	if plainRes.Lint != nil || lintRes.Lint == nil {
		t.Errorf("Lint presence: plain %v, linted %v; want nil and non-nil", plainRes.Lint, lintRes.Lint)
	}
}

// TestOptionsKeyNamesEveryField guards optionsKey against a new
// core.Options field: setting any one field away from its zero value
// must change the key.
func TestOptionsKeyNamesEveryField(t *testing.T) {
	zero := optionsKey(core.Options{})
	typ := reflect.TypeOf(core.Options{})
	for i := 0; i < typ.NumField(); i++ {
		var opts core.Options
		f := reflect.ValueOf(&opts).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(8)
		case reflect.Map:
			f.Set(reflect.MakeMap(f.Type()))
			f.SetMapIndex(reflect.ValueOf("p"), reflect.ValueOf(true))
		case reflect.Slice:
			f.Set(reflect.Append(reflect.MakeSlice(f.Type(), 0, 1), reflect.ValueOf("p")))
		default:
			t.Fatalf("core.Options.%s has kind %s: teach optionsKey and this test about it",
				typ.Field(i).Name, f.Kind())
		}
		if optionsKey(opts) == zero {
			t.Errorf("optionsKey ignores core.Options.%s", typ.Field(i).Name)
		}
	}
}
