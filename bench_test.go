package sxnm

// One benchmark per paper artifact (Tables 1–3, Figs. 4–6), each
// exercising the code path that regenerates it at a reduced size, plus
// ablation benches for the design choices DESIGN.md calls out (key
// generation, window sweep cost, transitive closure, all-pairs versus
// windowed, DE-SNM elimination).
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/gen/toxgene"
	"repro/internal/similarity"
	"repro/internal/xmltree"
)

// benchMovies memoizes the dirty movie document used across benches.
var benchMovies *xmltree.Document

func movieDoc(b *testing.B) *xmltree.Document {
	b.Helper()
	if benchMovies == nil {
		doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 500, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchMovies = doc
	}
	return benchMovies
}

var benchCDs *xmltree.Document

func cdDoc(b *testing.B) *xmltree.Document {
	b.Helper()
	if benchCDs == nil {
		doc, err := dataset.DataSet2(dataset.CDs2Options{Discs: 150, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchCDs = doc
	}
	return benchCDs
}

var benchLargeCDs *xmltree.Document

func largeCDDoc(b *testing.B) *xmltree.Document {
	b.Helper()
	if benchLargeCDs == nil {
		benchLargeCDs = dataset.DataSet3(1500, 1)
	}
	return benchLargeCDs
}

func validated(b *testing.B, cfg *config.Config) *config.Config {
	b.Helper()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkTable1KeyGeneration measures phase 1 (key generation +
// object description extraction) under the Table 1 movie configuration.
func BenchmarkTable1KeyGeneration(b *testing.B) {
	doc := toxgene.Movies(500, 1)
	cfg := validated(b, config.Table1Movie())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GenerateKeys(doc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Temporaries regenerates the Table 2 worked example
// (GK relation of the Fig. 2(a) movie).
func BenchmarkTable2Temporaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Configs validates (compiles) the three data-set
// configurations of Table 3.
func BenchmarkTable3Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range []*config.Config{
			config.DataSet1(5), config.DataSet2(5), config.DataSet3(5),
		} {
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchRunMovies runs one full SXNM pass over the movie data with the
// given single key (or all keys when key < 0) and reports recall as a
// bench metric.
func benchRunMovies(b *testing.B, window, key int, metric string) {
	doc := movieDoc(b)
	gold, err := eval.BuildGold(doc, dataset.MoviePath)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last eval.Metrics
	for i := 0; i < b.N; i++ {
		cfg := config.DataSet1(window)
		if key >= 0 {
			cfg.KeepKeys("movie", key)
		}
		validated(b, cfg)
		res, err := core.Run(doc, cfg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = eval.PairwiseMetrics(gold, res.Clusters["movie"])
	}
	switch metric {
	case "recall":
		b.ReportMetric(last.Recall, "recall")
	case "precision":
		b.ReportMetric(last.Precision, "precision")
	}
}

// BenchmarkFig4aMoviesRecall exercises the Fig. 4(a) measurement: a
// single-pass run (key 1) on Data set 1 at window 8, reporting recall.
func BenchmarkFig4aMoviesRecall(b *testing.B) {
	benchRunMovies(b, 8, 0, "recall")
}

// BenchmarkFig4bMoviesPrecision exercises the Fig. 4(b) measurement:
// a multi-pass run on Data set 1 at window 8, reporting precision.
func BenchmarkFig4bMoviesPrecision(b *testing.B) {
	benchRunMovies(b, 8, -1, "precision")
}

// BenchmarkFig4cCDsFMeasure exercises the Fig. 4(c) measurement: the
// multi-pass disc run on Data set 2 at window 4, reporting f-measure.
func BenchmarkFig4cCDsFMeasure(b *testing.B) {
	doc := cdDoc(b)
	gold, err := eval.BuildGold(doc, dataset.DiscPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last eval.Metrics
	for i := 0; i < b.N; i++ {
		cfg := validated(b, config.DataSet2(4))
		res, err := core.Run(doc, cfg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = eval.PairwiseMetrics(gold, res.Clusters["disc"])
	}
	b.ReportMetric(last.F1, "f-measure")
}

// BenchmarkFig4dLargePrecision exercises the Fig. 4(d) measurement:
// the did-prefix key on the large corpus at window 5, reporting
// precision.
func BenchmarkFig4dLargePrecision(b *testing.B) {
	doc := largeCDDoc(b)
	gold, err := eval.BuildGold(doc, dataset.DiscPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last eval.Metrics
	for i := 0; i < b.N; i++ {
		cfg := config.DataSet3(5)
		cfg.KeepKeys("disc", 1)
		validated(b, cfg)
		res, err := core.Run(doc, cfg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = eval.PairwiseMetrics(gold, res.Clusters["disc"])
	}
	b.ReportMetric(last.Precision, "precision")
}

// benchScale runs the Experiment set 2 pipeline for one variant.
func benchScale(b *testing.B, variant dataset.ScaleVariant) {
	doc, err := dataset.ScalabilityData(400, variant, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := validated(b, dataset.ScalabilityConfig(3))
		if _, err := core.Run(doc, cfg, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aScalabilityClean measures SXNM over clean movie data
// (Fig. 5(a)).
func BenchmarkFig5aScalabilityClean(b *testing.B) { benchScale(b, dataset.Clean) }

// BenchmarkFig5bScalabilityFew measures SXNM over data with few
// duplicates (Fig. 5(b)).
func BenchmarkFig5bScalabilityFew(b *testing.B) { benchScale(b, dataset.FewDuplicates) }

// BenchmarkFig5cScalabilityMany measures SXNM over data with many
// duplicates (Fig. 5(c)).
func BenchmarkFig5cScalabilityMany(b *testing.B) { benchScale(b, dataset.ManyDuplicates) }

// BenchmarkFig5dOverhead measures the KG+SW overhead computation of
// Fig. 5(d): clean and dirty runs back to back.
func BenchmarkFig5dOverhead(b *testing.B) {
	clean, err := dataset.ScalabilityData(300, dataset.Clean, 1)
	if err != nil {
		b.Fatal(err)
	}
	dirty, err := dataset.ScalabilityData(300, dataset.FewDuplicates, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var overhead float64
	for i := 0; i < b.N; i++ {
		cfg := validated(b, dataset.ScalabilityConfig(3))
		rc, err := core.Run(clean, cfg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg2 := validated(b, dataset.ScalabilityConfig(3))
		rd, err := core.Run(dirty, cfg2, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		base := rc.Stats.KeyGen + rc.Stats.SlidingWindow
		if base > 0 {
			overhead = float64(rd.Stats.KeyGen+rd.Stats.SlidingWindow)/float64(base) - 1
		}
	}
	b.ReportMetric(overhead*100, "overhead%")
}

// BenchmarkFig6aODThreshold exercises the Fig. 6(a) measurement: an
// OD-only disc run at the paper's optimal threshold 0.65.
func BenchmarkFig6aODThreshold(b *testing.B) {
	doc := cdDoc(b)
	gold, err := eval.BuildGold(doc, dataset.DiscPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last eval.Metrics
	for i := 0; i < b.N; i++ {
		cfg := config.DataSet2(4)
		disc := cfg.Candidate("disc")
		disc.Rule = config.RuleEither
		disc.ODThreshold = 0.65
		disc.DescThreshold = 0
		validated(b, cfg)
		res, err := core.Run(doc, cfg, core.Options{DisableDescendants: true})
		if err != nil {
			b.Fatal(err)
		}
		last = eval.PairwiseMetrics(gold, res.Clusters["disc"])
	}
	b.ReportMetric(last.F1, "f-measure")
}

// BenchmarkFig6bDescThreshold exercises the Fig. 6(b) measurement: the
// descendant-aware disc run at descendants threshold 0.3.
func BenchmarkFig6bDescThreshold(b *testing.B) {
	doc := cdDoc(b)
	gold, err := eval.BuildGold(doc, dataset.DiscPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last eval.Metrics
	for i := 0; i < b.N; i++ {
		cfg := config.DataSet2(4)
		disc := cfg.Candidate("disc")
		disc.Rule = config.RuleEither
		disc.ODThreshold = 0.65
		disc.DescThreshold = 0.3
		validated(b, cfg)
		res, err := core.Run(doc, cfg, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = eval.PairwiseMetrics(gold, res.Clusters["disc"])
	}
	b.ReportMetric(last.F1, "f-measure")
}

// --- Ablation benches -------------------------------------------------

// BenchmarkAblationWindowedVsAllPairs contrasts SXNM's windowed
// comparisons against the exhaustive baseline on the same data.
func BenchmarkAblationWindowedVsAllPairs(b *testing.B) {
	doc := movieDoc(b)
	b.Run("windowed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := validated(b, config.DataSet1(5))
			if _, err := core.Run(doc, cfg, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("allpairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := validated(b, config.DataSet1(5))
			if _, err := baseline.AllPairs(doc, cfg, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDESNM measures the DE-SNM variant on data with many
// exact duplicates, where elimination pays off.
func BenchmarkAblationDESNM(b *testing.B) {
	doc := movieDoc(b)
	for i := 0; i < b.N; i++ {
		cfg := validated(b, config.DataSet1(5))
		if _, err := baseline.DESNM(doc, cfg, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindowSize shows the comparison cost growing with
// the window (the knob of Sec. 2.2 step 3).
func BenchmarkAblationWindowSize(b *testing.B) {
	doc := movieDoc(b)
	for _, w := range []int{2, 5, 10, 20} {
		b.Run(windowName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := validated(b, config.DataSet1(w))
				cfg.KeepKeys("movie", 0)
				if err := cfg.Validate(); err != nil {
					b.Fatal(err)
				}
				if _, err := core.Run(doc, cfg, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func windowName(w int) string {
	return "w=" + string(rune('0'+w/10)) + string(rune('0'+w%10))
}

// BenchmarkAblationLevenshtein measures the plain and banded edit
// distance on typical title-length strings.
func BenchmarkAblationLevenshtein(b *testing.B) {
	a, s := "The Fortune of the Golden River", "The Fortune of the Broken Ocean"
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			similarity.Levenshtein(a, s)
		}
	})
	b.Run("bounded3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			similarity.LevenshteinBounded(a, s, 3)
		}
	})
}

// BenchmarkAblationTransitiveClosure measures union-find closure over
// a chain of duplicate pairs.
func BenchmarkAblationTransitiveClosure(b *testing.B) {
	const n = 10000
	for i := 0; i < b.N; i++ {
		uf := cluster.NewUnionFind()
		for j := 0; j < n; j++ {
			uf.Add(j)
		}
		for j := 1; j < n; j++ {
			uf.Union(j-1, j)
		}
		if uf.Len() != n {
			b.Fatal("bad chain")
		}
	}
}

// BenchmarkAblationKeyGenDOMvsStream contrasts DOM-building key
// generation against the bounded-memory streaming variant.
func BenchmarkAblationKeyGenDOMvsStream(b *testing.B) {
	doc := movieDoc(b)
	xmlText := doc.String()
	cfg := validated(b, dataset.ScalabilityConfig(3))
	b.Run("dom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parsed, err := xmltree.ParseString(xmlText)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.GenerateKeys(parsed, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GenerateKeysStream(strings.NewReader(xmlText), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// windowSweepCases is the flag matrix of the deterministic hot-path
// speedups: the sequential baseline, the sharded pair pool at 4
// workers, the similarity memo, and both combined. Every case computes
// the exact same clusters (see internal/core's differential suite);
// only ns/op may differ. Shared with the bench-regression guard in
// bench_guard_test.go.
var windowSweepCases = []struct {
	name string
	opts core.Options
}{
	{"seq", core.Options{}},
	{"workers4", core.Options{PairWorkers: 4}},
	{"cached", core.Options{SimCache: true}},
	{"workers4+cached", core.Options{PairWorkers: 4, SimCache: true}},
	{"filtered", core.Options{UseFilter: true}},
	{"filtered+workers4", core.Options{UseFilter: true, PairWorkers: 4}},
}

// benchWindowSweep measures Detect only — keys are generated once, so
// ns/op isolates the sliding-window sweep plus transitive closure.
func benchWindowSweep(b *testing.B, opts core.Options) {
	doc := movieDoc(b)
	cfg := validated(b, config.DataSet1(5))
	kg, err := core.GenerateKeys(doc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Detect(kg, cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowSweep sweeps the 500-movie document through each
// speedup combination.
func BenchmarkWindowSweep(b *testing.B) {
	for _, c := range windowSweepCases {
		b.Run(c.name, func(b *testing.B) { benchWindowSweep(b, c.opts) })
	}
}

// shardSweepCases is the sharded-sweep matrix shared with the
// bench-regression guard: shards=1 runs the full shard machinery —
// planner, worker goroutine, batch channel, verdict replay — over a
// single range, so its gap from the plain sequential sweep IS the
// coordination overhead (guarded to ≤15% in bench_guard_test.go);
// shards=4 is the scale-out shape, alone, with the in-shard pair pool,
// and over the external-sort range readers. Every case computes the
// exact same clusters (see TestDifferentialSharded); only ns/op may
// differ.
var shardSweepCases = []struct {
	name string
	opts core.Options
}{
	{"shards1", core.Options{Shards: 1}},
	{"shards4", core.Options{Shards: 4}},
	{"shards4+workers4", core.Options{Shards: 4, PairWorkers: 4}},
	{"shards4+spill-256", core.Options{Shards: 4, SpillThresholdRows: 256}},
}

// BenchmarkWindowSweepSharded sweeps the 500-movie document through the
// shard matrix.
func BenchmarkWindowSweepSharded(b *testing.B) {
	for _, c := range shardSweepCases {
		b.Run(c.name, func(b *testing.B) { benchWindowSweep(b, c.opts) })
	}
}

// spillSweepCases is the external-sort matrix shared with the
// bench-regression guard: spill disabled (must cost the same as the
// plain sequential sweep — the gate is one nil check per candidate),
// and two run sizes of the on-disk path. ns/op for the spilled cases
// includes run-file writes, the k-way merge, and checksum verification,
// so they bound the I/O tax, not just CPU.
var spillSweepCases = []struct {
	name string
	opts core.Options
}{
	{"spill-off", core.Options{}},
	{"spill-256", core.Options{SpillThresholdRows: 256}},
	{"spill-32", core.Options{SpillThresholdRows: 32}},
}

// BenchmarkGKSortSpill measures the memory-bounded GK sort across the
// corpus × threshold matrix: the 500-movie document (single candidate,
// three passes) and the 150-disc CD document (four nested candidates).
func BenchmarkGKSortSpill(b *testing.B) {
	type corpus struct {
		name string
		doc  *xmltree.Document
		cfg  *config.Config
	}
	corpora := []corpus{
		{"movies500", movieDoc(b), validated(b, config.DataSet1(5))},
		{"cds150", cdDoc(b), validated(b, config.DataSet2(5))},
	}
	for _, co := range corpora {
		kg, err := core.GenerateKeys(co.doc, co.cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range spillSweepCases {
			b.Run(co.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Detect(kg, co.cfg, c.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCancellationOverhead contrasts a plain Run (nil Done
// channel: every cancellation check short-circuits) against the same
// run under a cancelable context (checks active, polled every 1024
// window pairs). The delta is the price of the robustness layer on the
// sliding-window hot loop — it must stay in the noise (<2%).
func BenchmarkCancellationOverhead(b *testing.B) {
	doc := largeCDDoc(b)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := validated(b, config.DataSet3(5))
			if _, err := core.Run(doc, cfg, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cancelable", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < b.N; i++ {
			cfg := validated(b, config.DataSet3(5))
			if _, err := core.RunContext(ctx, doc, cfg, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGKPersistence measures the write/read cycle of the
// temporary GK relations.
func BenchmarkAblationGKPersistence(b *testing.B) {
	doc := movieDoc(b)
	cfg := validated(b, dataset.ScalabilityConfig(3))
	kg, err := core.GenerateKeys(doc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf strings.Builder
		if err := core.WriteGK(&buf, kg); err != nil {
			b.Fatal(err)
		}
		if _, err := core.ReadGK(strings.NewReader(buf.String()), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// frontEndCorpus is one corpus of the front-end ledger: its serialized
// bytes, its parsed document, and a validated configuration whose
// candidate paths are plain, so both key generators accept it.
type frontEndCorpus struct {
	name string
	xml  []byte
	doc  *xmltree.Document
	cfg  *config.Config
}

// frontEndCorpora are the corpora of the parse and keygen ledger
// layers: the 500-movie document (one flat candidate) and the 150-disc
// CD document (four nested candidates).
func frontEndCorpora(tb testing.TB) []frontEndCorpus {
	tb.Helper()
	movies, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 500, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cds, err := dataset.DataSet2(dataset.CDs2Options{Discs: 150, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	out := []frontEndCorpus{
		{name: "movies500", doc: movies, cfg: config.DataSet1(5)},
		{name: "cds150", doc: cds, cfg: config.DataSet2(5)},
	}
	for i := range out {
		if err := out[i].cfg.Validate(); err != nil {
			tb.Fatal(err)
		}
		out[i].xml = []byte(out[i].doc.String())
	}
	return out
}

// frontEndLayers are the ledger's front-end layers, each one operation
// over a corpus: the XML scan into a DOM, DOM key generation over a
// parsed document, and streaming key generation straight from bytes.
var frontEndLayers = []struct {
	name string
	op   func(c frontEndCorpus) error
}{
	{"parse", func(c frontEndCorpus) error {
		_, err := xmltree.ParseWithLimits(bytes.NewReader(c.xml), core.Limits{})
		return err
	}},
	{"keygen-dom", func(c frontEndCorpus) error {
		_, err := core.GenerateKeys(c.doc, c.cfg)
		return err
	}},
	{"keygen-stream", func(c frontEndCorpus) error {
		_, err := core.GenerateKeysStream(bytes.NewReader(c.xml), c.cfg)
		return err
	}},
}

func benchFrontEnd(b *testing.B, layer string) {
	for _, c := range frontEndCorpora(b) {
		for _, l := range frontEndLayers {
			if l.name != layer {
				continue
			}
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(c.xml)))
				for i := 0; i < b.N; i++ {
					if err := l.op(c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParse measures the XML scan into a DOM.
func BenchmarkParse(b *testing.B) { benchFrontEnd(b, "parse") }

// BenchmarkKeyGenDOM measures key generation over a parsed document.
func BenchmarkKeyGenDOM(b *testing.B) { benchFrontEnd(b, "keygen-dom") }

// BenchmarkKeyGenStream measures streaming key generation from bytes.
func BenchmarkKeyGenStream(b *testing.B) { benchFrontEnd(b, "keygen-stream") }
