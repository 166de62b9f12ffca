package ir

import (
	"sync"

	"fragdroid/internal/apk"
)

// The compiled-program registry lives on the apps themselves: each App
// carries one atomically-published cell (apk.App.IRState) holding either a
// parked payload source or the resolved program. Apps are immutable once
// loaded and shared by pointer across devices and sessions, so the
// cell is shared exactly as widely as the app — and garbage-collected with
// it. (An earlier design used a process-global sync.Map keyed by *apk.App;
// that pinned every app ever loaded for the life of the process, a real leak
// for long-lived static-only consumers that load thousands of apps and never
// execute one.)

// cell is the per-app registry entry. once guards the single resolution:
// whichever goroutine runs it decodes the parked source or compiles, and
// every For caller shares the one program (and its inline-cache array).
type cell struct {
	once sync.Once
	p    *Program
	src  *lazySource
}

// lazySource is a parked provider of an encoded program, resolved by For on
// the app's first execution.
type lazySource struct {
	// load fetches the encoded payload (typically from the artifact store);
	// ok=false means no entry exists.
	load func() ([]byte, bool)
	// hit runs when the payload decoded cleanly; miss runs when there was no
	// usable payload and p had to be compiled instead (the artifact layer
	// uses it to repair the store entry and keep its counters honest).
	hit  func()
	miss func(p *Program)
}

// cellOf returns the app's registry cell, publishing a fresh one on first
// touch. The CAS keeps concurrent first touches converging on one cell.
func cellOf(app *apk.App) *cell {
	slot := app.IRState()
	if v := slot.Load(); v != nil {
		return v.(*cell)
	}
	c := &cell{}
	if slot.CompareAndSwap(nil, c) {
		return c
	}
	return slot.Load().(*cell)
}

// RegisterLazy parks a payload source for an app instead of decoding (or
// compiling) up front: consumers that never execute the app — static-only
// studies, lint runs, source exports — pay nothing, while the first For call
// resolves the source exactly once. A payload that is missing or fails to
// decode falls back to compiling, identical to a cache miss. RegisterLazy
// must happen before the app's first For (the artifact cache calls it inside
// the per-entry build, before the app is handed to any caller); a source
// parked after the cell resolved is ignored.
func RegisterLazy(app *apk.App, load func() ([]byte, bool), onHit func(), onMiss func(*Program)) {
	cellOf(app).src = &lazySource{load: load, hit: onHit, miss: onMiss}
}

// For returns the compiled program for an app: an already registered
// program, a parked lazy payload decoded on this first use, or a fresh
// compilation, in that order.
func For(app *apk.App) *Program {
	c := cellOf(app)
	c.once.Do(func() {
		src := c.src
		c.src = nil // resolved below; don't pin the source's captures
		if src != nil {
			if payload, ok := src.load(); ok {
				if p, err := Decode(payload, app); err == nil {
					if src.hit != nil {
						src.hit()
					}
					c.p = p
					return
				}
			}
			c.p = Compile(app)
			if src.miss != nil {
				src.miss(c.p)
			}
			return
		}
		c.p = Compile(app)
	})
	return c.p
}
