// Command train builds a query-recommendation model from a raw search log
// and persists it for cmd/recommend and cmd/serve.
//
// Usage:
//
//	train -log search.log -model model.bin [-threshold 5] [-epsilons 0,0.05,0.1]
//	train -log search.log -model hmm.bin -family hmm
//
// The default (no -family) trains the paper's MVMM pipeline and writes a
// QRECV005 container. With -family one of the other paper model families is
// trained instead and written as a QRECF001 container, loadable by cmd/serve
// as a fleet arm (or, for adjacency, as a -rerank model):
//
//	hmm           intent HMM over sessions (the paper's future-work model)
//	cluster       click-through clustering (related work, Sec. II)
//	adjacency     pair-wise adjacency baseline
//	cooccurrence  pair-wise co-occurrence baseline
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiled"
	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/logfmt"
	"repro/internal/pairwise"
	"repro/internal/query"
	"repro/internal/session"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	var (
		logPath   = flag.String("log", "", "raw search log (required)")
		modelPath = flag.String("model", "model.bin", "output model file")
		threshold = flag.Int("threshold", 5, "data-reduction frequency threshold (paper: 5; -1 disables)")
		epsilons  = flag.String("epsilons", "", "comma-separated VMM growth thresholds (default: the paper's 0.0..0.1)")
		family    = flag.String("family", "", "train a non-MVMM model family instead: hmm, cluster, adjacency or cooccurrence")
	)
	flag.Parse()
	if *logPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *family != "" {
		trainFamily(*family, *logPath, *modelPath, *threshold)
		return
	}

	cfg := core.DefaultConfig()
	cfg.ReductionThreshold = *threshold
	if *epsilons != "" {
		var eps []float64
		for _, part := range strings.Split(*epsilons, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				log.Fatalf("bad epsilon %q: %v", part, err)
			}
			eps = append(eps, v)
		}
		cfg.Epsilons = eps
	}

	f, err := os.Open(*logPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	rec, err := core.TrainFromLog(f, cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := rec.Stats()
	fmt.Fprintf(os.Stderr, "train: %d sessions, %d searches, %d unique queries, mean length %.2f (%.1fs)\n",
		st.Sessions, st.Searches, st.UniqueQueries, st.MeanLength(), time.Since(start).Seconds())

	out, err := os.Create(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	if err := rec.Save(out); err != nil {
		log.Fatal(err)
	}
	info, _ := out.Stat()
	if info != nil {
		fmt.Fprintf(os.Stderr, "train: model saved to %s (%d bytes)\n", *modelPath, info.Size())
	}
}

// trainFamily trains one of the non-MVMM paper model families from the raw
// log and writes a QRECF001 container that cmd/serve loads as a fleet arm.
func trainFamily(family, logPath, modelPath string, threshold int) {
	f, err := os.Open(logPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	dict := query.NewDict()
	var payload io.WriterTo
	switch family {
	case compiled.FamilyCluster:
		// The cluster family trains on the query–URL click graph, not on
		// session sequences.
		g := cluster.NewClickGraph(dict)
		if err := g.AddAll(logfmt.NewReader(f)); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "train: click graph over %d distinct queries\n", g.NumQueries())
		payload = cluster.Build(g, cluster.DefaultConfig())
	case compiled.FamilyHMM, compiled.FamilyAdjacency, compiled.FamilyCooccurrence:
		sessions, err := session.SegmentReader(logfmt.NewReader(f), dict, session.DefaultGap)
		if err != nil {
			log.Fatal(err)
		}
		agg := session.Aggregate(sessions)
		if threshold >= 0 {
			agg, _ = session.Reduce(agg, uint64(threshold))
		}
		st := session.Collect(agg)
		fmt.Fprintf(os.Stderr, "train: %d sessions, %d unique queries, mean length %.2f\n",
			st.Sessions, st.UniqueQueries, st.MeanLength())
		switch family {
		case compiled.FamilyHMM:
			m, err := hmm.Train(agg, hmm.DefaultConfig(dict.Len()))
			if err != nil {
				log.Fatal(err)
			}
			payload = m
		case compiled.FamilyAdjacency:
			payload = pairwise.NewAdjacency(agg, dict.Len())
		case compiled.FamilyCooccurrence:
			payload = pairwise.NewCooccurrence(agg, dict.Len())
		}
	default:
		log.Fatalf("unknown -family %q (want hmm, cluster, adjacency or cooccurrence)", family)
	}
	fmt.Fprintf(os.Stderr, "train: %s model trained (%.1fs)\n", family, time.Since(start).Seconds())

	out, err := os.Create(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	if err := core.SaveFamily(out, family, dict, payload); err != nil {
		log.Fatal(err)
	}
	info, _ := out.Stat()
	if info != nil {
		fmt.Fprintf(os.Stderr, "train: %s model saved to %s (%d bytes)\n", family, modelPath, info.Size())
	}
}
