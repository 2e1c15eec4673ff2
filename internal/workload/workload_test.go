package workload

import (
	"math"
	"testing"
	"testing/quick"

	"holdcsim/internal/dist"
	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
	"holdcsim/internal/trace"
)

func TestPoissonRate(t *testing.T) {
	p := Poisson{Rate: 100}
	r := rng.New(1)
	const n = 100000
	total := 0.0
	for i := 0; i < n; i++ {
		total += p.Next(r)
	}
	rate := n / total
	if math.Abs(rate-100)/100 > 0.02 {
		t.Errorf("empirical rate = %v", rate)
	}
	if (Poisson{Rate: 0}).Next(r) >= 0 {
		t.Error("zero-rate Poisson should end the stream")
	}
}

func TestTraceReplay(t *testing.T) {
	tr := &trace.Trace{Times: []float64{1, 1.5, 4}}
	rp := NewTraceReplay(tr)
	r := rng.New(2)
	gaps := []float64{1, 0.5, 2.5}
	for i, want := range gaps {
		if got := rp.Next(r); math.Abs(got-want) > 1e-12 {
			t.Errorf("gap %d = %v, want %v", i, got, want)
		}
	}
	if rp.Next(r) >= 0 {
		t.Error("exhausted trace should return negative")
	}
}

func TestUtilizationRate(t *testing.T) {
	// rho=0.3, 50 servers x 4 cores, 5ms mean: λ = 0.3*200/0.005 = 12000/s.
	if got := UtilizationRate(0.3, 50, 4, 0.005); math.Abs(got-12000) > 1e-9 {
		t.Errorf("rate = %v, want 12000", got)
	}
	if UtilizationRate(0, 1, 1, 1) != 0 || UtilizationRate(0.5, 0, 1, 1) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestServiceProfiles(t *testing.T) {
	if WebSearchService().Mean() != 0.005 {
		t.Error("web search mean != 5ms")
	}
	if WebServingService().Mean() != 0.120 {
		t.Error("web serving mean != 120ms")
	}
	if math.Abs(WikipediaService().Mean()-0.0065) > 1e-12 {
		t.Errorf("wikipedia mean = %v, want 6.5ms", WikipediaService().Mean())
	}
}

func TestSingleTaskFactory(t *testing.T) {
	f := SingleTask{Service: dist.Deterministic{Value: 0.005}}
	r := rng.New(3)
	j := f.NewJob(7, 100*simtime.Second, r)
	if j.ID != 7 || len(j.Tasks) != 1 {
		t.Fatalf("job = %+v", j)
	}
	if j.Tasks[0].Size != 5*simtime.Millisecond {
		t.Errorf("task = %+v", j.Tasks[0])
	}
	if j.Tasks[0].State != job.TaskReady {
		t.Error("root not ready")
	}
}

func TestSingleTaskFactoryFloorsSize(t *testing.T) {
	f := SingleTask{Service: dist.Deterministic{Value: 0}}
	j := f.NewJob(1, 0, rng.New(4))
	if j.Tasks[0].Size <= 0 {
		t.Error("zero-size task not floored")
	}
}

func TestTwoTierFactory(t *testing.T) {
	f := TwoTier{
		AppService: dist.Deterministic{Value: 0.003},
		DBService:  dist.Deterministic{Value: 0.007},
		Bytes:      4096,
	}
	j := f.NewJob(1, 0, rng.New(5))
	if len(j.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(j.Tasks))
	}
	if j.Tasks[0].Size != 3*simtime.Millisecond || j.Tasks[1].Size != 7*simtime.Millisecond {
		t.Error("app/db sizes wrong")
	}
	if len(j.Tasks[0].Out) != 1 || j.Tasks[0].Out[0].Bytes != 4096 {
		t.Error("edge wrong")
	}
}

func TestRandomDAGFactory(t *testing.T) {
	f := RandomDAG{Layers: 3, MaxWidth: 4, MaxDeps: 2,
		MinSize: simtime.Millisecond, MaxSize: 5 * simtime.Millisecond, EdgeBytes: 100e6}
	r := rng.New(6)
	for i := 0; i < 20; i++ {
		j := f.NewJob(job.ID(i), 0, r)
		if _, err := j.TopoOrder(); err != nil {
			t.Fatal(err)
		}
		for _, tk := range j.Tasks {
			for _, e := range tk.Out {
				if e.Bytes != 100e6 {
					t.Fatal("edge bytes wrong")
				}
			}
		}
	}
}

func TestScatterGatherFactory(t *testing.T) {
	f := ScatterGather{Width: 4,
		RootSize:   dist.Deterministic{Value: 0.001},
		WorkerSize: dist.Deterministic{Value: 0.002},
		AggSize:    dist.Deterministic{Value: 0.001},
		Bytes:      1024}
	j := f.NewJob(1, 0, rng.New(7))
	if len(j.Tasks) != 6 {
		t.Fatalf("tasks = %d", len(j.Tasks))
	}
}

func TestGeneratorPoisson(t *testing.T) {
	eng := engine.New()
	var arrivals []simtime.Time
	g := NewGenerator(eng, rng.New(8), Poisson{Rate: 1000},
		SingleTask{Service: WebSearchService()},
		func(j *job.Job) { arrivals = append(arrivals, j.ArriveAt) })
	g.MaxJobs = 500
	g.Start()
	eng.Run()
	if len(arrivals) != 500 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if g.Generated() != 500 {
		t.Errorf("Generated = %d", g.Generated())
	}
	// Mean gap should be ~1ms.
	mean := arrivals[len(arrivals)-1].Seconds() / float64(len(arrivals))
	if math.Abs(mean-0.001)/0.001 > 0.2 {
		t.Errorf("mean gap = %v s", mean)
	}
	// IDs are sequential from 0.
}

func TestGeneratorUntil(t *testing.T) {
	eng := engine.New()
	count := 0
	g := NewGenerator(eng, rng.New(9), Poisson{Rate: 100},
		SingleTask{Service: WebSearchService()}, func(*job.Job) { count++ })
	g.Until = simtime.Second
	g.Start()
	eng.Run()
	if count < 50 || count > 160 {
		t.Errorf("count = %d, want ~100", count)
	}
	if eng.Now() > simtime.Second {
		t.Errorf("generated past Until: %v", eng.Now())
	}
}

func TestGeneratorTraceDriven(t *testing.T) {
	tr := &trace.Trace{Times: []float64{0.5, 1.0, 2.0}}
	eng := engine.New()
	var at []simtime.Time
	g := NewGenerator(eng, rng.New(10), NewTraceReplay(tr),
		SingleTask{Service: WikipediaService()},
		func(j *job.Job) { at = append(at, eng.Now()) })
	g.Start()
	eng.Run()
	if len(at) != 3 {
		t.Fatalf("arrivals = %d", len(at))
	}
	want := []simtime.Time{500 * simtime.Millisecond, simtime.Second, 2 * simtime.Second}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("arrival %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() []simtime.Time {
		eng := engine.New()
		var at []simtime.Time
		g := NewGenerator(eng, rng.New(42), Poisson{Rate: 500},
			SingleTask{Service: WebSearchService()},
			func(j *job.Job) { at = append(at, j.ArriveAt) })
		g.MaxJobs = 100
		g.Start()
		eng.Run()
		return at
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different arrival sequences")
		}
	}
}

// Property: generator IDs are dense and ordered; arrivals nondecreasing.
func TestGeneratorOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		eng := engine.New()
		var ids []job.ID
		var times []simtime.Time
		g := NewGenerator(eng, rng.New(seed), Poisson{Rate: 2000},
			SingleTask{Service: WebSearchService()},
			func(j *job.Job) { ids = append(ids, j.ID); times = append(times, j.ArriveAt) })
		g.MaxJobs = 50
		g.Start()
		eng.Run()
		if len(ids) != 50 {
			return false
		}
		for i := range ids {
			if ids[i] != job.ID(i) {
				return false
			}
			if i > 0 && times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMMPPArrivalStrings(t *testing.T) {
	m, err := dist.NewMMPP2(100, 10, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if (MMPP{Proc: m}).String() == "" || (Poisson{Rate: 1}).String() == "" {
		t.Error("empty arrival process strings")
	}
	if (SingleTask{Service: WebSearchService()}).String() == "" ||
		(TwoTier{AppService: WebSearchService(), DBService: WebSearchService()}).String() == "" ||
		(RandomDAG{}).String() == "" || (ScatterGather{}).String() == "" {
		t.Error("empty factory strings")
	}
	tr := NewTraceReplay(&trace.Trace{Times: []float64{1}})
	if tr.String() == "" {
		t.Error("empty trace replay string")
	}
}
