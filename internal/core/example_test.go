package core_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/query"
)

// Example walks the full production lifecycle: train a recommender from
// aggregated sessions, persist it in the QRECV005 format (CPS5 compiled
// section), restore it through the fast LoadPath route,
// and serve ranked suggestions through the interned-ID API the HTTP layer
// uses. The output is asserted, so this runs in CI.
func Example() {
	// Aggregated training sessions: users who searched "nokia n73" usually
	// refined to "nokia n73 themes", occasionally to "nokia n73 review".
	dict := query.NewDict()
	seq := func(queries ...string) query.Seq {
		s := make(query.Seq, len(queries))
		for i, q := range queries {
			s[i] = dict.Intern(q)
		}
		return s
	}
	sessions := []query.Session{
		{Queries: seq("nokia n73", "nokia n73 themes"), Count: 30},
		{Queries: seq("nokia n73", "nokia n73 review"), Count: 10},
		{Queries: seq("kidney stones", "kidney stone symptoms"), Count: 20},
	}

	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	rec := core.TrainFromAggregated(dict, sessions, cfg)

	// Persist (Save writes QRECV005: dictionary, interpreted mixture, and
	// the CPS5 compiled section).
	path := filepath.Join(os.TempDir(), "example-model.bin")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)

	// Restore through LoadPath: on platforms with mmap the compiled section
	// is memory-mapped rather than decoded, and the interpreted mixture
	// stays on disk until first Model() use.
	loaded, err := core.LoadPath(path)
	if err != nil {
		log.Fatal(err)
	}
	defer loaded.Close()

	// Serve: intern the user's context once (the serving layers cache on
	// the interned IDs) and ask for ranked suggestions.
	ctx := core.InternContext(loaded.Dict(), []string{"nokia n73"})
	for i, s := range core.RecommendIDs(loaded, ctx, 2) {
		fmt.Printf("%d. %s\n", i+1, s.Query)
	}
	// Output:
	// 1. nokia n73 themes
	// 2. nokia n73 review
}
