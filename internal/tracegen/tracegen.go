// Package tracegen is the seeded event generator the fold tests and
// benchmarks share: one node's stream in the shape a fleet shipper sends —
// several lanes each walking a random call tree, merged into canonical
// (TS, lane) order, with the properties the fold's cost depends on:
//
//   - Zipf function popularity, so a few functions carry most calls,
//     their interval lists grow long and a hot function recurses into
//     itself now and then;
//   - a quarter of sibling calls start exactly when the previous one
//     ended (the parser merges them when the function repeats), the rest
//     after a positive gap (a new interval every time);
//   - a fifth of leaf calls go to MPI_-prefixed functions, so the
//     critical-path analyzer has wait states to attribute;
//   - a temperature sample every SampleEvery of virtual time.
//
// Same Config, same stream. It mirrors _bench/gen.go's shape on purpose
// and is deliberately not imported by it: the benchmark is frozen.
// FuzzEvents turns fuzz bytes into a stream for the fold's fuzz targets.
package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tempest/internal/trace"
)

// Config shapes a stream. Zero fields take the defaults noted.
type Config struct {
	Seed  int64
	Lanes int // default 4
	// LaneID maps a walker's index to the lane id its events carry
	// (default: the index itself, the dense ids Tracer.NewLane hands out).
	LaneID func(i int) uint32
	// SampleEvery is the virtual time between samples (default 250 ms;
	// negative: none).
	SampleEvery time.Duration
}

const (
	computeFuncs = 112
	waitFuncs    = 16
	maxDepth     = 6
)

type frame struct {
	fid      uint32
	children int // calls still to make before this frame exits
}

type walker struct {
	id        uint32
	stack     []frame
	next      trace.Event
	pending   frame // the frame next opens when it is an enter
	afterExit bool  // the next enter is a sibling and may be back-to-back
}

// Gen produces one node's endless event stream.
type Gen struct {
	rng         *rand.Rand
	sym         *trace.SymTab
	zipf        *rand.Zipf
	lanes       []walker
	sampleEvery time.Duration
	nextSample  time.Duration
}

// New returns a generator at the start of its stream.
func New(cfg Config) *Gen {
	if cfg.Lanes <= 0 {
		cfg.Lanes = 4
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 250 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Gen{
		rng:         rng,
		sym:         trace.NewSymTab(),
		zipf:        rand.NewZipf(rng, 1.1, 1, computeFuncs-1),
		lanes:       make([]walker, cfg.Lanes),
		sampleEvery: cfg.SampleEvery,
		nextSample:  cfg.SampleEvery,
	}
	for i := 0; i < computeFuncs; i++ {
		g.sym.Register(fmt.Sprintf("work.fn%03d", i))
	}
	for i := 0; i < waitFuncs; i++ {
		g.sym.Register(fmt.Sprintf("MPI_Wait%02d", i))
	}
	for i := range g.lanes {
		l := &g.lanes[i]
		l.id = uint32(i)
		if cfg.LaneID != nil {
			l.id = cfg.LaneID(i)
		}
		g.schedule(l, time.Duration(1+rng.Intn(4000)))
	}
	return g
}

// Sym returns the stream's symbol table, complete from the start.
func (g *Gen) Sym() *trace.SymTab { return g.sym }

func (g *Gen) exp(mean float64) time.Duration {
	return time.Duration(g.rng.ExpFloat64()*mean) + 1
}

// schedule computes l's next event given that its previous one happened
// at time at.
func (g *Gen) schedule(l *walker, at time.Duration) {
	depth := len(l.stack)
	if depth > 0 && l.stack[depth-1].children == 0 {
		mean := 3000.0
		if !l.afterExit {
			mean = 20000 // a leaf's tail is its whole body
		}
		l.next = trace.Event{Kind: trace.KindExit, Lane: l.id, FuncID: l.stack[depth-1].fid, TS: at + g.exp(mean)}
		return
	}
	if depth > 0 {
		l.stack[depth-1].children--
	}
	gap := g.exp(4000)
	if l.afterExit && g.rng.Intn(4) == 0 {
		gap = 0 // back-to-back sibling
	}
	f := frame{fid: uint32(g.zipf.Uint64())}
	switch leaf := depth+1 >= maxDepth || g.rng.Intn(100) < 55; {
	case leaf && g.rng.Intn(5) == 0:
		f.fid = computeFuncs + uint32(g.rng.Intn(waitFuncs))
	case !leaf:
		f.children = 1 + g.rng.Intn(5)
	}
	l.next = trace.Event{Kind: trace.KindEnter, Lane: l.id, FuncID: f.fid, TS: at + gap}
	l.pending = f
}

// Fill appends the stream's next n events to buf and returns it.
func (g *Gen) Fill(buf []trace.Event, n int) []trace.Event {
	for ; n > 0; n-- {
		l := &g.lanes[0]
		for i := 1; i < len(g.lanes); i++ {
			c := &g.lanes[i]
			if c.next.TS < l.next.TS || (c.next.TS == l.next.TS && c.id < l.id) {
				l = c
			}
		}
		if g.sampleEvery > 0 && l.next.TS >= g.nextSample {
			t := 45 + 4*math.Sin(g.nextSample.Seconds()/3)
			for i := range g.lanes {
				t += float64(len(g.lanes[i].stack))
			}
			buf = append(buf, trace.Event{Kind: trace.KindSample, TS: g.nextSample, ValueC: math.Round(t*1000) / 1000})
			g.nextSample += g.sampleEvery
			continue
		}
		e := l.next
		buf = append(buf, e)
		if e.Kind == trace.KindEnter {
			l.stack = append(l.stack, l.pending)
			l.afterExit = false
		} else {
			l.stack = l.stack[:len(l.stack)-1]
			l.afterExit = true
		}
		g.schedule(l, e.TS)
	}
	return buf
}

// FuzzEvents decodes fuzz bytes into an event stream over a fixed symbol
// table, for the fuzz targets of the fold's consumers: 4 bytes per event
// choose kind, lane, function and a timestamp delta (high bit =
// deliberate regression). Function ids above the registered range
// exercise the unknown-symbol path.
func FuzzEvents(data []byte) ([]trace.Event, *trace.SymTab) {
	sym := trace.NewSymTab()
	names := []string{"alpha", "beta", "gamma", "delta", "main",
		"MPI_Barrier", "MPI_Allreduce", "MPI_Send"}
	fids := make([]uint32, len(names))
	for i, n := range names {
		fids[i] = sym.Register(n)
	}
	var evs []trace.Event
	var ts time.Duration
	for i := 0; i+3 < len(data); i += 4 {
		var fid uint32
		if sel := int(data[i+2]) % (len(fids) + 2); sel < len(fids) {
			fid = fids[sel]
		} else {
			fid = uint32(100 + sel) // unresolvable on purpose
		}
		e := trace.Event{
			Lane:   uint32(data[i+1]) % 5,
			FuncID: fid,
		}
		switch data[i] % 8 {
		case 0, 1, 2:
			e.Kind = trace.KindEnter
		case 3, 4, 5:
			e.Kind = trace.KindExit
		case 6:
			e.Kind = trace.KindMarker
		default:
			e.Kind = trace.KindDrop
			e.Aux = uint64(data[i+2])
		}
		d := time.Duration(data[i+3]&0x3f) * time.Millisecond
		if data[i+3]&0x80 != 0 {
			ts -= d // cross-lane regression: must clamp, not corrupt
			if ts < 0 {
				ts = 0
			}
		} else {
			ts += d
		}
		e.TS = ts
		evs = append(evs, e)
	}
	return evs, sym
}
