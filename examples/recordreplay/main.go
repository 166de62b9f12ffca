// Recordreplay demonstrates the record-and-replay testing technique the
// paper's introduction surveys (§I): a "human" session is recorded on one
// device through the ADB bridge, stored as a Robotium script, and replayed
// on a second device. It then contrasts the cost with FragDroid's automated
// exploration, which needs no human input collection at all.
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"fragdroid/internal/adb"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/explorer"
	"fragdroid/internal/recorder"
	"fragdroid/internal/robotium"
)

func main() {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		log.Fatal(err)
	}

	// --- record a human session --------------------------------------
	rec := recorder.New(device.New(app, device.Options{}), "human_session")
	must(rec.LaunchMain())
	must(rec.Click(corpus.NavButtonRef("Main", "Login")))
	must(rec.EnterText(corpus.InputRef("Login", "Account"), "alice"))
	must(rec.Click(corpus.NavButtonRef("Login", "Account")))
	script := rec.Script()

	data, err := json.MarshalIndent(script, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d events:\n%s\n\n", rec.Len(), data)

	// --- replay on a fresh device -------------------------------------
	if _, err := recorder.Replay(rec, device.New(app, device.Options{})); err != nil {
		log.Fatal(err)
	}
	fmt.Println("replay on a second device: OK (same landing activity)")

	// --- the same script runs through the ADB instrumentation path ----
	bridge := adb.New(app, device.Options{})
	bridge.InstallTest("com.demo.app.test", script)
	out, err := bridge.Run("am instrument -w com.demo.app.test android.test.InstrumentationTestRunner")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adb instrumentation run: %s\n\n", out)

	// --- contrast with automated exploration --------------------------
	cfg := explorer.DefaultConfig()
	cfg.Inputs = map[string]string{corpus.InputRef("Login", "Account"): "alice"}
	res, err := explorer.Explore(app, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("R&R covered 3 activities with %d hand-recorded events;\n", rec.Len())
	fmt.Printf("FragDroid covered %d activities and %d fragments with zero recording\n",
		len(res.VisitedActivities()), len(res.VisitedFragments()))
	fmt.Printf("(%d generated test cases; the Robotium render of one human event: %s)\n",
		res.TestCases, robotium.Click(corpus.NavButtonRef("Main", "Login")))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
