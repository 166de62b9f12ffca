package ir

import (
	"sync"

	"fragdroid/internal/apk"
)

// The compiled-program registry lives on the apps themselves: each App
// carries one atomically-published cell (apk.App.IRState) holding the app's
// program once compiled. Apps are immutable once loaded and shared by
// pointer across devices and sessions, so the cell is shared exactly as
// widely as the app — and garbage-collected with it. (An earlier design used
// a process-global sync.Map keyed by *apk.App; that pinned every app ever
// loaded for the life of the process, a real leak for long-lived static-only
// consumers that load thousands of apps and never execute one.)

// cell is the per-app registry entry. once guards the single compilation:
// whichever goroutine runs it compiles, and every For caller shares the one
// program (and its inline-cache array).
type cell struct {
	once sync.Once
	p    *Program
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

// For returns the compiled program for an app, compiling it once per app on
// the first call: consumers that never execute the app pay nothing.
func For(app *apk.App) *Program {
	c := cellOf(app)
	c.once.Do(func() { c.p = Compile(app) })
	return c.p
}
