package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/setcover"
)

// allocRow is one row of TestAllocCeilings: one driver call on one
// instance, held to ceilings in mallocs and in bytes per call.
type allocRow struct {
	alg, name      string       // the registry algorithm the row covers, and the row within it
	inst           func() Input // memoised: the rows of one instance share it, read-only
	p              Params
	run            func(in Input, p Params) (any, error)
	mallocs, bytes float64
	check          func(res any) error // a precondition the reading relies on
	// spread is how far two readings of the row may differ in mallocs and
	// bytes: 0, except for a row whose result holds a map of more than 1 024
	// entries. Such a map splits its tables by hashed key, so what it
	// allocates follows the random seed the runtime gives each map.
	spread [2]float64
}

// TestAllocCeilings pins what one driver call allocates, mallocs and bytes,
// at a small size and at a job-scale size for every registry algorithm. A
// row runs a registry job, or the direct driver call with the options its
// family names. Each row is measured the same way (allocRow.measure): the
// message plane's column state drained, one warm-up call, one runtime.GC(),
// then with the collector off one more warm-up call and three measured
// calls, so a collection cannot empty the message-column pool between them.
// The whole test runs on one P: the pool keeps a per-P slot that no other P
// takes from, so a test goroutine that changed P between calls could read
// higher in some processes than in others. Because each row starts from no
// pooled or handed-off column, it reads the same alone, in the table and in
// TestAllocReadingsIgnoreOrder's reversed pass. Every ceiling is 1.25× the
// reading noted beside it, rounded up, except where the family says
// otherwise; each reading was the same in three processes.
func TestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := allocRows()
	covered := map[string]int{}
	for _, row := range rows {
		if _, ok := LookupAlgorithm(row.alg); !ok {
			t.Fatalf("row %s/%s: no algorithm %q", row.alg, row.name, row.alg)
		}
		covered[row.alg]++
	}
	for _, a := range Algorithms() {
		if covered[a.Name] < 2 {
			t.Errorf("%s has %d rows, want a small and a job-scale one", a.Name, covered[a.Name])
		}
	}
	for _, row := range rows {
		t.Run(row.alg+"/"+row.name, func(t *testing.T) {
			mallocs, bytes := row.measure(t)
			if mallocs > row.mallocs || bytes > row.bytes {
				t.Errorf("%v mallocs and %.0f bytes per call, want <= %v and <= %.0f",
					mallocs, bytes, row.mallocs, row.bytes)
			}
			t.Logf("%v mallocs, %.0f bytes per call", mallocs, bytes)
		})
	}
}

// TestAllocReadingsIgnoreOrder measures the TestAllocCeilings table forward
// and then reversed, and fails if any row reads differently in the two
// passes: what the rows before a row left in the message plane must not move
// its reading.
func TestAllocReadingsIgnoreOrder(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := allocRows()
	forward := make([][2]float64, len(rows))
	for i, row := range rows {
		forward[i][0], forward[i][1] = row.measure(t)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		mallocs, bytes := rows[i].measure(t)
		if f, d := forward[i], rows[i].spread; math.Abs(mallocs-f[0]) > d[0] || math.Abs(bytes-f[1]) > d[1] {
			t.Errorf("%s/%s: %v mallocs and %.0f bytes per call reversed, %v and %.0f forward",
				rows[i].alg, rows[i].name, mallocs, bytes, f[0], f[1])
		}
	}
}

// measure returns row's mallocs and bytes per call. It first drains the
// message plane's column state: closing a cluster that reserved nothing
// sends the hand-off set to the pool, and two collections empty the pool
// and its victim cache. So no column an earlier call left behind serves
// this row's calls.
func (row allocRow) measure(t *testing.T) (mallocs, bytes float64) {
	in := row.inst()
	mpc.NewCluster(mpc.Config{Machines: 1}).Close()
	runtime.GC()
	runtime.GC()
	res, err := row.run(in, row.p)
	if err == nil && row.check != nil {
		err = row.check(res)
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", row.alg, row.name, err)
	}
	run := func() {
		if _, err := row.run(in, row.p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, run), bytesPerRun(3, run)
}

// allocRows builds the table, family by family.
func allocRows() []allocRow {
	input := func(build func() Input) func() Input { return sync.OnceValue(func() Input { return shared(build()) }) }
	density := func(n int, c float64, seed uint64) func() Input {
		return input(func() Input { return Input{Graph: graph.Density(n, c, rng.New(seed))} })
	}
	weighted := func(n int, seed, weightSeed uint64) func() Input {
		return input(func() Input { return Input{Graph: weightedDensity(n, 0.3, seed, weightSeed)} })
	}
	job := func(alg string) func(Input, Params) (any, error) {
		a, _ := LookupAlgorithm(alg)
		return func(in Input, p Params) (any, error) { return a.Run(in, p, nil) }
	}
	var rows []allocRow

	// mis-simple, clique, luby and filtering: registry jobs on one worker.
	small, large := density(300, 0.5, 5), density(3420, 0.5, 62)
	rows = append(rows,
		allocRow{alg: "mis-simple", name: "n=300", inst: small, p: Params{Mu: 0.2}, mallocs: 538, bytes: 41090},     // 430 and 32 872
		allocRow{alg: "mis-simple", name: "n=3420", inst: large, p: Params{Mu: 0.05}, mallocs: 3248, bytes: 304914}, // 2 598 and 243 931
		allocRow{alg: "clique", name: "n=300", inst: small, p: Params{Mu: 0.2}, mallocs: 308, bytes: 36590},         // 246 and 29 272
		allocRow{alg: "clique", name: "n=3420", inst: large, p: Params{Mu: 0.05}, mallocs: 998, bytes: 394454},      // 798 and 315 563
		allocRow{alg: "luby", name: "n=300", inst: small, p: Params{Mu: 0.2}, mallocs: 277, bytes: 43630},           // 221 and 34 904
		allocRow{alg: "luby", name: "n=3420", inst: large, p: Params{Mu: 0.05}, mallocs: 1253, bytes: 293084},       // 1 002 and 234 467
		allocRow{alg: "filtering", name: "n=300", inst: small, p: Params{Mu: 0.2}, mallocs: 218, bytes: 83430},      // 174 and 66 744
		// Its vertex cover map holds more than 1 024 vertices. 80 readings in
		// one process spread over 579–584 mallocs and 768 603–793 264 bytes:
		// each split in one of the three measured calls adds 12 331 bytes to
		// the average, and no reading held more than two; spread allows four.
		allocRow{alg: "filtering", name: "n=3420", inst: large, p: Params{Mu: 0.05}, mallocs: 724, bytes: 960754, // 579 and 768 603
			spread: [2]float64{8, 49324}},
	)
	for i := range rows {
		rows[i].run = job(rows[i].alg)
		rows[i].p.Seed, rows[i].p.Workers = 1, 1
	}

	// mis: Algorithm 6 at µ = 0.05. What is left per call is the cluster,
	// the state's arrays and a few dozen small allocations per iteration
	// inside mpc, nothing per sampled vertex, per class or per record; the
	// candidates' neighbour lists are views of the central machine's inbox.
	// A driver-side copy of the sampled lists reads 2 283 mallocs and
	// 703 229 bytes, and 7 221 and 3 704 131.
	misFast := func(in Input, p Params) (any, error) { return MISFast(in.Graph, p) }
	rows = append(rows,
		allocRow{alg: "mis", name: "n=740", inst: density(740, 0.5, 62), p: Params{Mu: 0.05, Seed: 1}, run: misFast,
			mallocs: 819, bytes: 300964}, // 655 and 240 771; m = 20 130
		allocRow{alg: "mis", name: "n=3420", inst: large, p: Params{Mu: 0.05, Seed: 1}, run: misFast,
			mallocs: 1535, bytes: 894157}, // 1 228 and 715 325; m = 200 004
	)

	// matching: Algorithm 4. A run allocates its state and scratch once, then
	// a few slices per round helper. At µ = 0.2 the run is one full
	// iteration, at µ = 0.05 a sampled iteration and then a full one; the
	// only m-sized scratch is the sampled iteration's m-byte side slab.
	// Grouping the sides per vertex in a 2m-entry bucket reads 303 736,
	// 2 658 168, 584 787 and 4 775 336 bytes. Writing the samples, the
	// pushed ids and the forwarded potentials that no machine reads, instead
	// of charging them, reads 152, 162, 322 and 494 mallocs.
	rlrMatching := func(in Input, p Params) (any, error) { return RLRMatching(in.Graph, p, MatchingOptions{}) }
	matchingGraphs := map[int]func() Input{2000: weighted(2000, 31, 32), 12000: weighted(12000, 31, 32)}
	for _, tc := range []struct {
		n              int
		mu             float64
		sampled        int // sampled iterations the row must take
		mallocs, bytes float64
	}{
		{2000, 0.2, 0, 173, 153917},    // 138 and 123 133; m = 19 558
		{12000, 0.2, 0, 185, 1182077},  // 148 and 945 661; m = 200 879
		{2000, 0.05, 1, 334, 207350},   // 267 and 165 880; 1 113 edges left for the full iteration
		{12000, 0.05, 1, 490, 1677544}, // 392 and 1 342 035; 11 165 left
	} {
		inst := matchingGraphs[tc.n]
		rows = append(rows, allocRow{alg: "matching", name: fmt.Sprintf("n=%d/mu=%v", tc.n, tc.mu), inst: inst,
			p: Params{Mu: tc.mu, Seed: 1}, run: rlrMatching, mallocs: tc.mallocs, bytes: tc.bytes,
			check: func(res any) error {
				g := inst().Graph
				if k := sampledIterations(int64(g.M()), res.(*MatchingResult).History, eta(tc.n, tc.mu, 8)); k != tc.sampled {
					return fmt.Errorf("%d sampled iterations, the row needs %d", k, tc.sampled)
				}
				return nil
			}})
	}

	// bmatching: Algorithm 7 at µ = 0.05 and its own defaults b = 2, ε = 0.25,
	// in two iterations: the first samples each vertex's edges and the
	// second, under Line 7's small-graph bound, ships the few left whole.
	// Each vertex collects its alive edge ids in a max-degree scratch and
	// draws its sample into the sampled slab over one reused duplicate table.
	// A fresh sample per sampled vertex reads 1 004 and 4 259 mallocs;
	// writing the samples and the forwarded potentials that no machine
	// reads, instead of charging them, reads 211 and 279 mallocs and
	// 152 936 and 837 312 bytes.
	bMatching := func(in Input, p Params) (any, error) { return BMatching(in.Graph, p, BMatchingOptions{}) }
	for _, tc := range []struct {
		n              int
		mallocs, bytes float64
	}{
		{800, 264, 151710},  // 211 and 121 368; m = 5 943
		{4000, 328, 838317}, // 262 and 670 653; m = 48 159
	} {
		inst := weighted(tc.n, 81, 82)
		p := Params{Mu: 0.05, Seed: 1}
		rows = append(rows, allocRow{alg: "bmatching", name: fmt.Sprintf("n=%d", tc.n), inst: inst, p: p,
			run: bMatching, mallocs: tc.mallocs, bytes: tc.bytes,
			check: func(res any) error {
				// Line 7's bound at δ = 0.2: every edge is alive at first,
				// so the first iteration samples iff m is at least it.
				small := 2 * 2 * math.Log(1/0.2) * float64(eta(tc.n, p.Mu, 8)) / math.Pow(float64(tc.n), p.Mu)
				if m, it := inst().Graph.M(), res.(*MatchingResult).Iterations; float64(m) < small || it != 2 {
					return fmt.Errorf("%d iterations, m = %d against the small-graph bound %.0f; want a sampled first of 2",
						it, m, small)
				}
				return nil
			}})
	}

	// vcolour and ecolour: both Algorithm 5 variants at the benchmark's
	// density and µ (c = 0.3, µ = 0.2; κ = 1 at n = 2000, 2 at n = 8000).
	// No column is written: the route and output rounds charge their
	// records. Writing them into reserved columns read 62 and 63 mallocs
	// at n = 2000 and 79 and 81 at n = 8000, with 109 296, 1 674 027,
	// 429 328 and 10 341 584 bytes. Colouring each vertex group on a copied
	// induced subgraph, with an m-sized slab of edge groups, reads 92
	// mallocs and 3 174 557 bytes, and 141 and 9 170 368. Colouring each
	// edge group on a copied subgraph, with an int colour per edge, and
	// emitting from a second partition of all the items reads 94 and
	// 4 881 304, and 148 and 28 102 088.
	vertex := func(in Input, p Params) (any, error) { return VertexColouring(in.Graph, p) }
	edge := func(in Input, p Params) (any, error) { return EdgeColouring(in.Graph, p) }
	for _, tc := range []struct {
		n                  int
		vMallocs, eMallocs float64
		vBytes, eBytes     float64
	}{
		{2000, 65, 65, 75080, 1498394},  // 52 and 52; 60 064 and 1 198 715
		{8000, 79, 82, 290550, 9352890}, // 63 and 65; 232 440 and 7 482 312
	} {
		inst, name, p := density(tc.n, 0.3, 71), fmt.Sprintf("n=%d", tc.n), Params{Mu: 0.2, Seed: 1}
		rows = append(rows,
			allocRow{alg: "vcolour", name: name, inst: inst, p: p, run: vertex, mallocs: tc.vMallocs, bytes: tc.vBytes},
			allocRow{alg: "ecolour", name: name, inst: inst, p: p, run: edge, mallocs: tc.eMallocs, bytes: tc.eBytes},
		)
	}

	// setcover-greedy: Algorithm 3 at ε = 0.2 on the setcover-greedy spec's
	// instances. The dual-driven refresh and the flat group layout leave no
	// allocation per element probe or per group, each sampled set's group
	// ids are drawn into one reused buffer over one reused duplicate table,
	// the element slab, the membership list and the group buckets at least
	// double their capacity when they grow, and the plan is sized once. The
	// sampled sets' payloads are charged, so the slab holds only the
	// elements the central machine reads; a slab that also held each set's
	// id, k and group ids read 570 and 627 mallocs, 346 384 and 3 410 891
	// bytes. The serve row's bytes ceiling is 1.15× its reading: doubling
	// from the length instead of the capacity reads 3 320 555 bytes there
	// and fails it, and so does growing the slab and the memberships by
	// appends (3 780 075). A fresh sample and Floyd set per sampled set
	// reads 885 and 4 572 mallocs.
	hg := func(in Input, p Params) (any, error) { return HGSetCover(in.Cover, p, HGCoverOptions{Eps: 0.2}) }
	rows = append(rows,
		allocRow{alg: "setcover-greedy", name: "n=4000", p: Params{Mu: 0.2, Seed: 1000000}, run: hg,
			inst:    input(func() Input { return Input{Cover: setcover.RandomSized(4000, 400, 12, 8, rng.New(1).Split())} }),
			mallocs: 705, bytes: 387120}, // 564 and 309 696
		allocRow{alg: "setcover-greedy", name: "n=40000", p: Params{Mu: 0.2, Seed: 1000000}, run: hg,
			inst:    input(func() Input { return Input{Cover: serveCoverInstance()} }),
			mallocs: 778, bytes: 3276943}, // 622 and 2 849 515
	)

	// setcover-f and vertexcover: Algorithm 1 at µ = 0.2 on the setcover-f
	// and vertexcover specs' instances. The plan of sampled elements is
	// sized once, at min(m, 6η); most of vertexcover's bytes are message
	// columns no Reserve sizes, which at least double whenever they grow.
	// Left to append, the plan reads 843 016 and 4 895 240 bytes for
	// setcover-f, 2 099 800 and 8 197 336 for vertexcover; message columns
	// grown by append alone read 10 569 571 on the serve vertexcover row.
	rlrCover := func(opt CoverOptions) func(Input, Params) (any, error) {
		return func(in Input, p Params) (any, error) { return RLRSetCover(in.Cover, p, opt) }
	}
	for _, tc := range []struct {
		n                  int
		fMallocs, vMallocs float64
		fBytes, vBytes     float64
	}{
		{2000, 159, 203, 432744, 774984},   // 127 and 346 195; 162 and 619 987
		{8000, 169, 217, 2180264, 4116584}, // 135 and 1 744 211; 173 and 3 293 267
	} {
		setcoverF, vertexCover := rlrCoverInstances(tc.n)
		name, p := fmt.Sprintf("n=%d", tc.n), Params{Mu: 0.2, Seed: 1}
		rows = append(rows,
			allocRow{alg: "setcover-f", name: name, inst: input(setcoverF), p: p,
				run: rlrCover(CoverOptions{}), mallocs: tc.fMallocs, bytes: tc.fBytes},
			allocRow{alg: "vertexcover", name: name, inst: input(vertexCover), p: p,
				run: rlrCover(CoverOptions{VertexCoverMode: true}), mallocs: tc.vMallocs, bytes: tc.vBytes},
		)
	}
	return rows
}

// rlrCoverInstances builds what service.BuildInstance builds for the
// setcover-f spec {n, c: 0.3, f: 3, seed: 1} and the vertexcover spec
// {n, c: 0.3, seed: 1}.
func rlrCoverInstances(n int) (setcoverF, vertexCover func() Input) {
	const c = 0.3
	setcoverF = func() Input {
		m := int(math.Pow(float64(n), 1+c))
		return Input{Cover: setcover.RandomFrequency(n, m, 3, 10, rng.New(1).Split())}
	}
	vertexCover = func() Input {
		r := rng.New(1)
		g := graph.Density(n, c, r.Split())
		g.AssignUniformWeights(r.Split(), 1, 100)
		wr := r.Split()
		w := make([]float64, g.N)
		for i := range w {
			w[i] = wr.UniformWeight(1, 10)
		}
		return Input{Graph: g, Cover: setcover.FromVertexCover(g, w)}
	}
	return setcoverF, vertexCover
}

// bytesPerRun returns the heap bytes one call of run allocates, averaged
// over runs calls, on one P as testing.AllocsPerRun measures.
func bytesPerRun(runs int, run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestDriversLeaveLittleLive pins what Algorithms 4, 7 and 5 leave live
// after a job: the message columns their outboxes reserved, which wait in
// the plane's hand-off set for the next cluster. The matchings' samples,
// pushed ids and forwarded potentials are charged, not written, so only the
// central machine's ϕ columns remain, 16 bytes per changed vertex; the
// colourings' route and output records are charged too, so they leave no
// column at all. The hand-off set is emptied first by closing a cluster
// that reserved nothing, and two collections empty the column pool and its
// victim cache, so the reading is the job's own. Each ceiling is 1.25× the
// highest reading beside it, except the colourings', which are a fixed
// 32 KiB over readings of 0 bytes, room for the runtime's own noise.
// Writing the unread payload into reserved columns reads 1 868 752 bytes
// for matching, and about 541 000 for each colouring, whose output round
// reserved its column. Leaving the ϕ columns unreserved reads at most
// 5 248 bytes for matching and 96 for b-matching, but costs a matching job
// more allocation than the reservation keeps live (DESIGN.md, Algorithm 4).
func TestDriversLeaveLittleLive(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := graph.Density(3000, 0.3, rng.New(41))
	g.AssignUniformWeights(rng.New(42), 1, 100)
	sharedGraph(g)
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	p := Params{Mu: 0.2, Seed: 1}
	for _, tc := range []struct {
		name    string
		run     func() error
		ceiling int64
	}{
		{"matching", func() error { _, err := RLRMatching(g, p, MatchingOptions{}); return err }, 68450}, // 49 528 alone, up to 54 760 after TestAllocCeilings
		{"bmatching", func() error { _, err := BMatching(g, p, BMatchingOptions{}); return err }, 61740}, // 49 392
		{"vcolour", func() error { _, err := VertexColouring(g, p); return err }, 32768},                 // 0
		{"ecolour", func() error { _, err := EdgeColouring(g, p); return err }, 32768},                   // 0
	} {
		mpc.NewCluster(mpc.Config{Machines: 1}).Close()
		before := live()
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		grown := live() - before
		t.Logf("%s: %d bytes live after the job (m = %d)", tc.name, grown, g.M())
		if grown > tc.ceiling {
			t.Errorf("%s leaves %d bytes live after the job, want <= %d", tc.name, grown, tc.ceiling)
		}
	}
}
