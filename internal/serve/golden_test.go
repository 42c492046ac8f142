package serve

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current served bodies")

const goldenDir = "testdata/golden"

// servedFaults is the fault list the served-body golden pins: healthy,
// each single fault kind, and a pump fault combined with a design fault.
var servedFaults = []string{"", "pump:0.5", "dryout:0.5", "fouling:0.6", "htc:0.5", "pump:0.6,fouling:0.6"}

// TestServedFaultsGolden posts coarse x264 proposals under every fault in
// servedFaults to /v1/steady, and registers a blade under dryout:0.5 and
// steps it one chunk, on both solvers, all on one server. The bodies
// must match testdata/golden/served_faults.txt byte for byte: a fault
// reaches the solve as a derated design and a derated flow, and the
// answer does not depend on which sessions or Systems the server shares
// between faults. `go test ./internal/serve -run TestServedFaultsGolden
// -update` rewrites the file. Go fuses multiply-adds on some
// architectures and not others, so the golden holds only for the GOARCH
// recorded beside it; elsewhere the test skips.
func TestServedFaultsGolden(t *testing.T) {
	archFile := filepath.Join(goldenDir, "GOARCH")
	if !*update {
		arch, err := os.ReadFile(archFile)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.TrimSpace(string(arch)); want != runtime.GOARCH {
			t.Skipf("golden was written on %s, this is %s", want, runtime.GOARCH)
		}
	}
	s := newTestServer(t, Config{})
	h := s.Handler()
	var got bytes.Buffer
	record := func(path, body string, want int) {
		t.Helper()
		w := post(t, h, path, body)
		if w.Code != want {
			t.Fatalf("POST %s %s: %d %s", path, body, w.Code, w.Body)
		}
		fmt.Fprintf(&got, "> POST %s %s\n", path, body)
		got.Write(w.Body.Bytes())
	}
	for _, solver := range []string{"cg", "mgpcg"} {
		for _, f := range servedFaults {
			record("/v1/steady", fmt.Sprintf(`{"benchmark":"x264","fault":%q,"solver":%q}`, f, solver), http.StatusOK)
		}
		blade := "dry-" + solver
		record("/v1/transient", fmt.Sprintf(`{"blade":%q,"benchmark":"x264","fault":"dryout:0.5","solver":%q}`, blade, solver), http.StatusCreated)
		record("/v1/transient/"+blade+"/step", `{"seq":1,"dt_s":0.25,"steps":[{},{"load":1.2},{"load":0.5}]}`, http.StatusOK)
	}

	file := filepath.Join(goldenDir, "served_faults.txt")
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(archFile, []byte(runtime.GOARCH+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("served bodies differ from %s:\nwant:\n%s\ngot:\n%s", file, want, got.Bytes())
	}
}
