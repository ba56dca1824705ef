package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tempest/internal/sensors"
)

func steadySensor(c float64) *sensors.FuncSensor {
	return &sensors.FuncSensor{
		SensorName:  "test/steady",
		SensorLabel: "steady",
		Read:        func() (float64, error) { return c, nil },
	}
}

// replaySensor reads the same faulty sensor twice from identical seeds and
// expects the identical outcome sequence — the property every chaos test
// in the repo depends on.
func TestFaultySensorDeterministicReplay(t *testing.T) {
	run := func() []string {
		fs := NewFaultySensor(steadySensor(50), NewPlan(7), SensorFaults{
			ErrorRate: 0.3,
			SpikeRate: 0.1,
		})
		var out []string
		for i := 0; i < 200; i++ {
			v, err := fs.ReadC()
			if err != nil {
				out = append(out, "err")
			} else if v > 100 {
				out = append(out, "spike")
			} else {
				out = append(out, "ok")
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d differs between replays: %q vs %q", i, a[i], b[i])
		}
	}
	joined := strings.Join(a, ",")
	if !strings.Contains(joined, "err") || !strings.Contains(joined, "spike") {
		t.Fatalf("fault mix never fired: %s", joined[:80])
	}
}

func TestFaultySensorDropoutWindow(t *testing.T) {
	fs := NewFaultySensor(steadySensor(42), NewPlan(1), SensorFaults{
		DropoutAfter: 3,
		DropoutLen:   4,
	})
	for i := 0; i < 10; i++ {
		_, err := fs.ReadC()
		inWindow := i >= 3 && i < 7
		if inWindow && !errors.Is(err, ErrInjected) {
			t.Errorf("read %d: want injected dropout, got %v", i, err)
		}
		if !inWindow && err != nil {
			t.Errorf("read %d: unexpected error %v", i, err)
		}
	}
	if fs.Reads() != 10 {
		t.Errorf("Reads = %d, want 10", fs.Reads())
	}
}

func TestFaultySensorStuckWindow(t *testing.T) {
	n := 0.0
	ramp := &sensors.FuncSensor{SensorName: "test/ramp", Read: func() (float64, error) {
		n++
		return n, nil
	}}
	fs := NewFaultySensor(ramp, NewPlan(1), SensorFaults{StuckAfter: 2, StuckLen: 3})
	var got []float64
	for i := 0; i < 7; i++ {
		v, err := fs.ReadC()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	want := []float64{1, 2, 2, 2, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stuck window: got %v, want %v", got, want)
		}
	}
}

func TestFaultySensorSlowReads(t *testing.T) {
	var slept []time.Duration
	fs := NewFaultySensor(steadySensor(42), NewPlan(1), SensorFaults{
		SlowEvery: 2,
		Delay:     time.Second,
		Sleep:     func(d time.Duration) { slept = append(slept, d) },
	})
	for i := 0; i < 5; i++ {
		if _, err := fs.ReadC(); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 2 { // reads 2 and 4
		t.Fatalf("slept %d times, want 2", len(slept))
	}
}

func TestFaultyDialerRefusalsThenConnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()

	dial := FaultyDialer(NewPlan(3), ConnFaults{RefuseFirst: 2}, nil)
	for i := 0; i < 2; i++ {
		if _, err := dial("tcp", ln.Addr().String(), time.Second); !errors.Is(err, ErrInjected) {
			t.Fatalf("dial %d: want injected refusal, got %v", i, err)
		}
	}
	c, err := dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("third dial should succeed: %v", err)
	}
	c.Close()
}

func TestFaultyConnCloseAfterWrites(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFaultyConn(raw, NewPlan(1), ConnFaults{CloseAfterWrites: 2})
	for i := 0; i < 2; i++ {
		if _, err := fc.Write([]byte("frame")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := fc.Write([]byte("frame")); !errors.Is(err, ErrInjected) {
		t.Fatalf("third write: want injected close, got %v", err)
	}
	// Once dead, the conn stays dead.
	if _, err := fc.Write([]byte("frame")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after death: want injected error, got %v", err)
	}
}

func TestFaultyWriterTornTail(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFaultyWriter(&buf, NewPlan(1), WriterFaults{FailAfterBytes: 10})
	if n, err := fw.Write([]byte("01234567")); n != 8 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err := fw.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: n=%d err=%v, want n=2 + injected", n, err)
	}
	if buf.String() != "01234567ab" {
		t.Fatalf("tail on disk = %q", buf.String())
	}
	if _, err := fw.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-death write: %v", err)
	}
	if fw.Written() != 10 {
		t.Fatalf("Written = %d", fw.Written())
	}
}
