package sim

import "testing"

// BenchmarkEngineEvents measures the engine's event loop: schedule one
// timer, dispatch it, repeat — the push/pop cost every simulated
// time-advance pays. A backlog of far-future events keeps the heap at a
// realistic depth so sift costs are included.
func BenchmarkEngineEvents(b *testing.B) {
	eng := NewEngine()
	for i := 0; i < 1024; i++ {
		eng.At(Time(1<<40)+Time(i), func() {})
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.After(1, tick)
	eng.Run(Time(1 << 39))
	if n < b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// BenchmarkEngineProcSleep measures Sleep's fast-forward path: one proc
// against an empty heap never switches, so each op is a clock advance
// with no event and no context switch. BenchmarkEngineProcSwitch is the
// switch rung.
func BenchmarkEngineProcSleep(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	eng.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	eng.Run(0)
}

// BenchmarkEngineProcSwitch measures the proc context-switch path: two
// procs alternate Sleep(1), so every Sleep finds the other proc's wake
// event pending at the same instant, pushes its own, and switches — one
// op is an event push and pop plus a proc→engine→proc round trip.
func BenchmarkEngineProcSwitch(b *testing.B) {
	eng := NewEngine()
	body := func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			p.Sleep(1)
		}
	}
	eng.Spawn("ping", body)
	eng.Spawn("pong", body)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(0)
	b.StopTimer()
	if fast := eng.FastSleeps(); fast > 1 {
		b.Fatalf("%d of %d sleeps fast-forwarded; the rung must switch on every op", fast, b.N)
	}
}
