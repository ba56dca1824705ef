package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tempest/internal/trace"
)

// The one seeded event generator every fleet workload and layer probe
// draws from. Per node it walks a random call tree on each of genLanes
// lanes and merges the lanes into one timestamp-ordered stream, the
// order Tracer.Drain hands a real shipper. The properties below are the
// ones the pipeline's cost depends on, so they are fixed here once:
//
//   - genFuncs functions with Zipf popularity: a few functions carry most
//     calls, so per-function interval lists grow unevenly like real code.
//   - depth ≤ genMaxDepth, so shadow stacks stay shallow but non-trivial.
//   - ~20 % of leaf calls go to MPI_-prefixed functions, so critpath has
//     wait states to attribute.
//   - 25 % of sibling calls start exactly when the previous one ended
//     (parser.InsertInterval can merge them when the function repeats);
//     the rest start after a positive gap (a new interval every time).
//   - one KindSample per genSampleEvery of virtual time, whose value
//     depends on which functions are running, so hot-spot scores differ
//     between functions and the ranking oracle compares a real order.
const (
	genLanes       = 4
	genFuncs       = 128
	genWaitFuncs   = 16 // the last genWaitFuncs ids are MPI_ wait leaves
	genMaxDepth    = 6
	genChunkEvents = 4096
	genSampleEvery = 250 * time.Millisecond
)

type genFrame struct {
	fid      uint32
	children int // child calls still to make before this frame exits
}

// genLane is one lane's walker: its shadow stack and the next event it
// will emit.
type genLane struct {
	stack []genFrame
	next  trace.Event
	// pending is the frame next opens when it is an Enter.
	pending genFrame
	// afterExit is true when the previous event closed a call, so the
	// next Enter is a sibling and may be back-to-back.
	afterExit bool
}

// nodeGen produces one node's event stream. Same seed and node, same
// stream: the oracle regenerates it instead of holding it in memory.
type nodeGen struct {
	node       uint32
	rng        uint64 // xorshift64* state; math/rand costs more than the walk
	sym        *trace.SymTab
	zipf       [genTable]uint8 // inverse popularity CDF over compute functions
	heat       []float64       // per-function contribution to the sampled temperature
	lanes      [genLanes]genLane
	nextSample time.Duration
	events     uint64
}

// genTable is the resolution of the generator's lookup tables: draws
// from the popularity and exponential distributions are one table read.
const genTable = 4096

// expTable[i] is the exponential quantile −ln(1 − (i+½)/genTable).
var expTable = func() (t [genTable]float64) {
	for i := range t {
		t[i] = -math.Log(1 - (float64(i)+0.5)/genTable)
	}
	return t
}()

func newNodeGen(seed int64, node uint32) *nodeGen {
	setup := rand.New(rand.NewSource(seed*1000003 + int64(node)))
	g := &nodeGen{
		node: node,
		rng:  setup.Uint64() | 1,
		sym:  trace.NewSymTab(),
	}
	compute := genFuncs - genWaitFuncs
	for i := 0; i < genFuncs; i++ {
		name := fmt.Sprintf("work.fn%03d", i)
		if i >= compute {
			name = fmt.Sprintf("MPI_Wait%02d", i-compute)
		}
		g.sym.Register(name)
	}
	// Zipf(s=1.1) over the compute functions, in an order shuffled per
	// seed so the hot functions differ between runs.
	perm := setup.Perm(compute)
	weights := make([]float64, compute)
	var total float64
	for rank, fid := range perm {
		weights[fid] = 1 / math.Pow(float64(rank+1), 1.1)
		total += weights[fid]
	}
	fid, cum := 0, weights[0]/total
	for i := range g.zipf {
		for (float64(i)+0.5)/genTable > cum && fid < compute-1 {
			fid++
			cum += weights[fid] / total
		}
		g.zipf[i] = uint8(fid)
	}
	g.heat = make([]float64, genFuncs)
	for i := range g.heat {
		g.heat[i] = setup.Float64() * 6
	}
	for i := range g.lanes {
		l := &g.lanes[i]
		l.stack = make([]genFrame, 0, genMaxDepth+1)
		// Lanes start a few microseconds apart so ties are rare but real.
		g.schedule(l, uint32(i), time.Duration(1+g.intn(4000)))
	}
	g.nextSample = genSampleEvery
	return g
}

// next32 steps the xorshift64* generator and returns its high 32 bits.
func (g *nodeGen) next32() uint32 {
	x := g.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	g.rng = x
	return uint32((x * 0x2545F4914F6CDD1D) >> 32)
}

// intn returns a value in [0, n) by multiply-shift.
func (g *nodeGen) intn(n uint32) uint32 {
	return uint32((uint64(g.next32()) * uint64(n)) >> 32)
}

// expNanos draws an exponential duration with the given mean, at least
// 1 ns so "positive gap" means it.
func (g *nodeGen) expNanos(mean float64) time.Duration {
	return time.Duration(expTable[g.next32()>>20]*mean) + 1
}

func (g *nodeGen) pickCompute() uint32 {
	return uint32(g.zipf[g.next32()>>20])
}

// schedule computes lane l's next event given that its previous event
// happened at time at.
func (g *nodeGen) schedule(l *genLane, id uint32, at time.Duration) {
	depth := len(l.stack)
	if depth > 0 && l.stack[depth-1].children == 0 {
		// The open call has made all its calls: run its tail and exit.
		// A leaf's tail is its whole body.
		mean := 3000.0
		if !l.afterExit {
			mean = 20000
		}
		l.next = trace.Event{Kind: trace.KindExit, Lane: id, FuncID: l.stack[depth-1].fid, TS: at + g.expNanos(mean)}
		return
	}
	if depth > 0 {
		l.stack[depth-1].children--
	}
	gap := g.expNanos(4000)
	if l.afterExit && g.intn(4) == 0 {
		gap = 0 // back-to-back sibling
	}
	// Decide what is being called: a leaf (a fifth of them waits) or an
	// inner function with one to five calls of its own.
	var f genFrame
	leaf := depth+1 >= genMaxDepth || g.intn(100) < 55
	switch {
	case leaf && g.intn(5) == 0:
		f.fid = genFuncs - genWaitFuncs + g.intn(genWaitFuncs)
	case leaf:
		f.fid = g.pickCompute()
	default:
		f.fid = g.pickCompute()
		f.children = 1 + int(g.intn(5))
	}
	l.next = trace.Event{Kind: trace.KindEnter, Lane: id, FuncID: f.fid, TS: at + gap}
	l.pending = f
}

// fill appends up to n events to buf and returns it. The stream never
// ends; callers decide how much of it a run uses.
func (g *nodeGen) fill(buf []trace.Event, n int) []trace.Event {
	for n > 0 {
		li := 0
		for i := 1; i < genLanes; i++ {
			if g.lanes[i].next.TS < g.lanes[li].next.TS {
				li = i
			}
		}
		l := &g.lanes[li]
		if l.next.TS >= g.nextSample {
			buf = append(buf, trace.Event{Kind: trace.KindSample, TS: g.nextSample, ValueC: g.temperature()})
			g.nextSample += genSampleEvery
			g.events++
			n--
			continue
		}
		e := l.next
		buf = append(buf, e)
		g.events++
		n--
		if e.Kind == trace.KindEnter {
			l.stack = append(l.stack, l.pending)
			l.afterExit = false
		} else {
			l.stack = l.stack[:len(l.stack)-1]
			l.afterExit = true
		}
		g.schedule(l, uint32(li), e.TS)
	}
	return buf
}

// temperature is the simulated sensor: a slow swing plus the heat of
// whatever each lane is running, quantised to the millidegree the wire
// and trace codecs keep, so a round trip cannot change a value.
func (g *nodeGen) temperature() float64 {
	t := 45 + 4*math.Sin(g.nextSample.Seconds()/3)
	for i := range g.lanes {
		if st := g.lanes[i].stack; len(st) > 0 {
			t += g.heat[st[len(st)-1].fid]
		}
	}
	return math.Round(t*1000) / 1000
}

// chunk returns the node's next genChunkEvents events in buf's storage.
func (g *nodeGen) chunk(buf []trace.Event) []trace.Event {
	return g.fill(buf[:0], genChunkEvents)
}
