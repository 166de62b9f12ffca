package main

import (
	"os"
	"strings"
	"testing"
)

// TestMain points the default "auto" store at a throwaway directory so tests
// never touch the user's real artifact cache (and still exercise the
// persistent path).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "aftmviz-test-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("FRAGDROID_CACHE", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestRunStatic(t *testing.T) {
	if err := run([]string{"-app", "demo"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunExplored(t *testing.T) {
	if err := run([]string{"-app", "demo", "-explored"}); err != nil {
		t.Fatalf("run -explored: %v", err)
	}
}

func TestRunPaperApp(t *testing.T) {
	if err := run([]string{"-app", "au.com.digitalstampede.formula"}); err != nil {
		t.Fatalf("run paper app: %v", err)
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run([]string{"-app", "nope"}); err == nil {
		t.Fatal("unknown app: want error")
	}
}

// TestRunHelp pins -h and -help as a successful run: the flag package
// prints the usage to stderr and run returns no error, so the exit code is 0.
func TestRunHelp(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"-help"}} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunRejectsArguments pins the input boundary: aftmviz reads its app
// from -app alone, so a positional argument is an error naming -app rather
// than a silent render of the default demo app.
func TestRunRejectsArguments(t *testing.T) {
	for _, args := range [][]string{
		{"com.inditex.zara"},
		{"-cache", "off", "com.inditex.zara"},
		{"-app", "demo", "extra"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-app") {
			t.Errorf("run(%v) = %v, want an error naming -app", args, err)
		}
	}
}
