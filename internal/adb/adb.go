// Package adb exposes the device through the Android Debug Bridge command
// strings the paper's pipeline uses (§VI-A):
//
//	am start -n <COMPONENT> -a android.intent.action.MAIN -c android.intent.category.LAUNCHER
//	am start -n <COMPONENT>
//	am instrument -w <TestPackageName> android.test.InstrumentationTestRunner
//	uiautomator dump
//	logcat [-d]
//	input text <STRING> / input keyevent KEYCODE_BACK / input tap <REF>
//
// The bridge parses these command lines, drives the simulator, and returns
// shell-style output, so harnesses (and the paper's quoted invocations) can
// be replayed literally.
package adb

import (
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
)

// Bridge is an ADB connection to one device with an installed app.
type Bridge struct {
	dev *device.Device
	// log is the device log since installation, recorded through the
	// device's Hook for logcat.
	log []string
	// tests holds instrumentation test packages registered with Install.
	tests map[string]robotium.Script
}

// New installs app on a new device configured by opts and returns a bridge
// to it. The bridge records the device log for logcat through the device's
// Hook, and passes each line on to opts.Hook when that is set.
func New(app *apk.App, opts device.Options) *Bridge {
	b := &Bridge{tests: make(map[string]robotium.Script)}
	next := opts.Hook
	opts.Hook = func(line string) {
		b.log = append(b.log, line)
		if next != nil {
			next(line)
		}
	}
	b.dev = device.New(app, opts)
	return b
}

// Device exposes the underlying device.
func (b *Bridge) Device() *device.Device { return b.dev }

// InstallTest registers an instrumented test package (the paper packages
// generated Robotium test cases into the app with Ant and installs them).
func (b *Bridge) InstallTest(pkg string, s robotium.Script) {
	b.tests[pkg] = s
}

// Run parses and executes one shell command line, returning its output.
func (b *Bridge) Run(cmdline string) (string, error) {
	args, err := splitArgs(cmdline)
	if err != nil {
		return "", err
	}
	if len(args) == 0 {
		return "", fmt.Errorf("adb: empty command")
	}
	// Accept an optional "adb shell" prefix.
	if args[0] == "adb" {
		args = args[1:]
		if len(args) > 0 && args[0] == "shell" {
			args = args[1:]
		}
	}
	if len(args) == 0 {
		return "", fmt.Errorf("adb: empty shell command")
	}
	switch args[0] {
	case "am":
		return b.am(args[1:])
	case "uiautomator":
		return b.uiautomator(args[1:])
	case "logcat":
		return b.logcat(args[1:])
	case "input":
		return b.input(args[1:])
	default:
		return "", fmt.Errorf("adb: unknown command %q", args[0])
	}
}

// am implements the activity-manager subset.
func (b *Bridge) am(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("adb: am: missing subcommand")
	}
	switch args[0] {
	case "start":
		return b.amStart(args[1:])
	case "instrument":
		return b.amInstrument(args[1:])
	case "broadcast":
		return b.amBroadcast(args[1:])
	default:
		return "", fmt.Errorf("adb: am: unknown subcommand %q", args[0])
	}
}

// amBroadcast implements `am broadcast -a <action>`.
func (b *Bridge) amBroadcast(args []string) (string, error) {
	var action string
	for i := 0; i < len(args); i++ {
		if args[i] == "-a" {
			i++
			if i >= len(args) {
				return "", fmt.Errorf("adb: am broadcast: -a needs an action")
			}
			action = args[i]
			continue
		}
		return "", fmt.Errorf("adb: am broadcast: unknown flag %q", args[i])
	}
	if action == "" {
		return "", fmt.Errorf("adb: am broadcast: missing -a action")
	}
	if err := b.dev.Broadcast(action); err != nil {
		return "", err
	}
	return fmt.Sprintf("Broadcasting: Intent { act=%s }", action), nil
}

func (b *Bridge) amStart(args []string) (string, error) {
	var component, action, category string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-n":
			i++
			if i >= len(args) {
				return "", fmt.Errorf("adb: am start: -n needs a component")
			}
			component = args[i]
		case "-a":
			i++
			if i >= len(args) {
				return "", fmt.Errorf("adb: am start: -a needs an action")
			}
			action = args[i]
		case "-c":
			i++
			if i >= len(args) {
				return "", fmt.Errorf("adb: am start: -c needs a category")
			}
			category = args[i]
		default:
			return "", fmt.Errorf("adb: am start: unknown flag %q", args[i])
		}
	}
	if component == "" {
		return "", fmt.Errorf("adb: am start: missing -n component")
	}
	// Component may be "pkg/cls" or "pkg/.Cls" shorthand.
	cls := component
	if i := strings.IndexByte(component, '/'); i >= 0 {
		pkg, suffix := component[:i], component[i+1:]
		if strings.HasPrefix(suffix, ".") {
			cls = pkg + suffix
		} else {
			cls = suffix
		}
	}
	var err error
	if action == "android.intent.action.MAIN" && category == "android.intent.category.LAUNCHER" {
		err = b.dev.LaunchMain()
	} else {
		err = b.dev.ForceStart(cls)
	}
	if err != nil {
		if b.dev.Crashed() {
			return fmt.Sprintf("Starting: Intent { cmp=%s }\nError: %s", component, b.dev.CrashReason()), nil
		}
		return "", err
	}
	return fmt.Sprintf("Starting: Intent { cmp=%s }", component), nil
}

func (b *Bridge) amInstrument(args []string) (string, error) {
	var pkg string
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-w":
			// wait flag; ignored (runs are synchronous here)
		case strings.HasPrefix(args[i], "-"):
			return "", fmt.Errorf("adb: am instrument: unknown flag %q", args[i])
		default:
			if pkg == "" {
				pkg = args[i]
			}
		}
	}
	// "pkg android.test.InstrumentationTestRunner" or "pkg/runner".
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	s, ok := b.tests[pkg]
	if !ok {
		return "", fmt.Errorf("adb: am instrument: test package %q not installed", pkg)
	}
	res := robotium.Run(b.dev, s, robotium.Options{AutoDismiss: true})
	if res.Err != nil {
		return fmt.Sprintf("INSTRUMENTATION_FAILED: %s (%d ops executed): %v",
			pkg, res.Executed, res.Err), nil
	}
	return fmt.Sprintf("INSTRUMENTATION_RESULT: ok (%d ops)\nOK (1 test)", res.Executed), nil
}

// uiautomator implements `uiautomator dump`: a textual widget-tree dump.
func (b *Bridge) uiautomator(args []string) (string, error) {
	if len(args) == 0 || args[0] != "dump" {
		return "", fmt.Errorf("adb: uiautomator: want 'dump'")
	}
	dump, err := b.dev.Dump()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "<hierarchy activity=%q dialog=%v>\n", dump.Activity, dump.HasDialog)
	for _, w := range dump.Widgets {
		fmt.Fprintf(&sb, "  <node ref=%q class=%q text=%q visible=%v clickable=%v editable=%v fragment=%q/>\n",
			w.Ref, w.Type, w.Text, w.Visible, w.Clickable, w.Editable, w.FromFragment)
	}
	frags := append([]string(nil), dump.FMFragments...)
	sort.Strings(frags)
	for _, f := range frags {
		fmt.Fprintf(&sb, "  <fragment class=%q/>\n", f)
	}
	sb.WriteString("</hierarchy>")
	return sb.String(), nil
}

// logcat returns the device event log; "-d" (dump and exit) is accepted.
func (b *Bridge) logcat(args []string) (string, error) {
	for _, a := range args {
		if a != "-d" {
			return "", fmt.Errorf("adb: logcat: unknown flag %q", a)
		}
	}
	return strings.Join(b.log, "\n"), nil
}

// input implements tap/text/keyevent against widget refs (the simulator has
// no pixel coordinates; `input tap` takes a widget reference instead).
func (b *Bridge) input(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("adb: input: missing subcommand")
	}
	switch args[0] {
	case "tap":
		if len(args) != 2 {
			return "", fmt.Errorf("adb: input tap: want one widget ref")
		}
		return "", b.dev.Click(args[1])
	case "text":
		if len(args) != 3 {
			return "", fmt.Errorf("adb: input text: want <ref> <value>")
		}
		return "", b.dev.EnterText(args[1], args[2])
	case "keyevent":
		if len(args) != 2 || args[1] != "KEYCODE_BACK" {
			return "", fmt.Errorf("adb: input keyevent: only KEYCODE_BACK is supported")
		}
		return "", b.dev.Back()
	default:
		return "", fmt.Errorf("adb: input: unknown subcommand %q", args[0])
	}
}

// splitArgs tokenizes a command line, honouring double quotes.
func splitArgs(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	have := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote:
			if c == '"' {
				inQuote = false
			} else {
				cur.WriteByte(c)
			}
		case c == '"':
			inQuote = true
			have = true
		case c == ' ' || c == '\t':
			if have {
				out = append(out, cur.String())
				cur.Reset()
				have = false
			}
		default:
			cur.WriteByte(c)
			have = true
		}
	}
	if inQuote {
		return nil, fmt.Errorf("adb: unterminated quote in %q", s)
	}
	if have {
		out = append(out, cur.String())
	}
	return out, nil
}
