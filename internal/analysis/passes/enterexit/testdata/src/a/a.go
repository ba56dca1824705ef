// Fixture for the enterexit pass: seeded violations against the real
// trace.Lane type.
package a

import "tempest/internal/trace"

func missingExit(l *trace.Lane, fid uint32) {
	l.Enter(fid) // want `not matched by an Exit`
	work()
}

func deferredClosure(l *trace.Lane, fid uint32) {
	l.Enter(fid)
	defer func() { _ = l.Exit(fid) }()
	work()
}

func deferredCall(l *trace.Lane, fid uint32) {
	l.Enter(fid)
	defer l.Exit(fid)
	work()
}

func straightLine(l *trace.Lane, fid uint32) {
	l.Enter(fid)
	work()
	_ = l.Exit(fid)
}

func spanPair(l *trace.Lane, fid uint32) {
	l.EnterAt(fid, 1)
	work()
	_, _ = l.ExitSpan(fid, 2)
}

func spanMismatch(l *trace.Lane, a, b uint32) {
	l.EnterAt(a, 1) // want `not matched by an Exit`
	work()
	_, _ = l.ExitSpan(b, 2) // want `exits an id this function never entered`
}

func mismatchedIDs(l *trace.Lane, a, b uint32) {
	l.Enter(a) // want `not matched by an Exit`
	work()
	_ = l.Exit(b) // want `exits an id this function never entered`
}

// exitOnlyHelper closes a frame its caller opened: legal.
func exitOnlyHelper(l *trace.Lane, fid uint32) {
	work()
	_ = l.Exit(fid)
}

// goroutineScope: the closure is its own instrumentation scope.
func goroutineScope(l *trace.Lane, fid uint32) {
	go func() {
		l.Enter(fid) // want `not matched by an Exit`
		work()
	}()
}

// selfBalancing APIs need no pairing.
func selfBalancing(l *trace.Lane) {
	_ = l.Instrument("f", work)
}

// suppressed demonstrates the escape hatch for intentional half-pairs.
func suppressed(l *trace.Lane, fid uint32) {
	l.Enter(fid) //tempest:ignore enterexit
	work()
}

func work() {}
