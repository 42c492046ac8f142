package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cosim"
)

// checkpointVersion is bumped on any incompatible change of the payload
// schema; a restore refuses a version it does not understand instead of
// guessing.
const checkpointVersion = 1

// errCheckpointDisabled distinguishes "the operator never configured a
// checkpoint path" (the caller's mistake) from server-side save failures
// like a full disk.
var errCheckpointDisabled = fmt.Errorf("serve: checkpointing disabled (no checkpoint path configured)")

// checkpointBlade is one registered transient blade in a checkpoint: the
// normalized registration proposal (enough to rebuild the system,
// session, operating point and base power map deterministically), the
// resolved initial temperature, the exactly-once bookkeeping, and the
// sim's exact dynamic state. Decoding ignores the "base_power_w" field of
// older files: restore derives the base power map from the proposal.
type checkpointBlade struct {
	Blade    string               `json:"blade"`
	InitialC float64              `json:"initial_c"`
	Proposal SteadyRequest        `json:"proposal"`
	LastSeq  int64                `json:"last_seq,omitempty"`
	LastBody []byte               `json:"last_body,omitempty"`
	State    cosim.TransientState `json:"state"`
}

// checkpointPayload is the checksummed part of a checkpoint file.
type checkpointPayload struct {
	SavedUnix int64             `json:"saved_unix"`
	Blades    []checkpointBlade `json:"blades"`
}

// checkpointFile is the on-disk envelope: a version gate, a SHA-256 over
// the exact payload bytes (a torn or bit-rotted file is detected, not
// half-restored), and the payload itself.
type checkpointFile struct {
	Version  int             `json:"version"`
	Checksum string          `json:"checksum_sha256"`
	Payload  json.RawMessage `json:"payload"`
}

// SaveCheckpoint snapshots every live transient blade to the configured
// checkpoint path via atomic write-then-rename: a crash mid-save leaves
// the previous checkpoint intact, never a torn file. It returns the
// number of blades saved. Each blade is snapshotted under its step lock,
// so a checkpoint taken during streaming captures a consistent
// between-chunks state.
func (s *Server) SaveCheckpoint() (int, error) {
	if s.cfg.CheckpointPath == "" {
		return 0, errCheckpointDisabled
	}
	payload := checkpointPayload{SavedUnix: time.Now().Unix()}
	for _, name := range s.trans.names() {
		b, ok := s.trans.get(name)
		if !ok {
			continue
		}
		b.mu.Lock()
		if b.dead {
			b.mu.Unlock()
			continue
		}
		cb := checkpointBlade{
			Blade:    b.name,
			InitialC: b.initialC,
			Proposal: b.req,
			LastSeq:  b.lastSeq,
			LastBody: append([]byte(nil), b.lastBody...),
			State:    *b.sim.ExportState(),
		}
		b.mu.Unlock()
		payload.Blades = append(payload.Blades, cb)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(raw)
	envelope, err := json.Marshal(checkpointFile{
		Version:  checkpointVersion,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  raw,
	})
	if err != nil {
		return 0, err
	}
	if err := atomicWrite(s.cfg.CheckpointPath, envelope); err != nil {
		return 0, err
	}
	s.stats.checkpointSaves.Add(1)
	return len(payload.Blades), nil
}

// atomicWrite writes data to path through a temp file in the same
// directory, fsyncs, renames, and fsyncs the directory — the crash-safe
// publish idiom. The final directory sync is what makes a *successful*
// save durable: without it a power loss can undo the rename itself, so
// the previous checkpoint would survive but the save the caller was told
// succeeded would silently not.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// RestoreCheckpoint rebuilds the transient blade registry from the
// configured checkpoint path: each saved blade gets a fresh
// system+session built from its normalized proposal (exactly the
// registration path), then its sim state is overwritten with the
// checkpointed one, so the blade resumes at its exact simulated time —
// restore-then-step is bit-identical to never having stopped. A missing
// file is a fresh boot (0, nil); a corrupt, truncated, or
// version-mismatched file is an error and restores nothing.
func (s *Server) RestoreCheckpoint() (int, error) {
	if s.cfg.CheckpointPath == "" {
		return 0, errCheckpointDisabled
	}
	raw, err := os.ReadFile(s.cfg.CheckpointPath)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var env checkpointFile
	if err := json.Unmarshal(raw, &env); err != nil {
		return 0, fmt.Errorf("serve: checkpoint %s: %w", s.cfg.CheckpointPath, err)
	}
	if env.Version != checkpointVersion {
		return 0, fmt.Errorf("serve: checkpoint %s: version %d, want %d",
			s.cfg.CheckpointPath, env.Version, checkpointVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.Checksum {
		return 0, fmt.Errorf("serve: checkpoint %s: checksum mismatch (file corrupt?)", s.cfg.CheckpointPath)
	}
	var payload checkpointPayload
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		return 0, fmt.Errorf("serve: checkpoint %s: payload: %w", s.cfg.CheckpointPath, err)
	}
	restored := 0
	for i := range payload.Blades {
		if err := s.restoreBlade(&payload.Blades[i]); err != nil {
			return restored, fmt.Errorf("serve: restore blade %q: %w", payload.Blades[i].Blade, err)
		}
		restored++
	}
	s.stats.checkpointRestored.Add(int64(restored))
	return restored, nil
}

// restoreBlade rebuilds one blade from its checkpoint entry.
func (s *Server) restoreBlade(cb *checkpointBlade) error {
	if err := validateRegistration(cb.Blade, cb.InitialC); err != nil {
		return err
	}
	p, err := s.normalizeSteady(cb.Proposal)
	if err != nil {
		return err
	}
	b := &transientBlade{
		name:     cb.Blade,
		req:      p.req,
		initialC: cb.InitialC,
		lastSeq:  cb.LastSeq,
		lastBody: append([]byte(nil), cb.LastBody...),
	}
	_, err = s.addBlade(b, p, &cb.State)
	return err
}

// checkpointLoop periodically snapshots the registry until stopped.
// Failures are reported to the debug log and retried next tick — a full
// disk must not kill the service the checkpoints exist to protect.
func (s *Server) checkpointLoop(every time.Duration) {
	defer close(s.ckptDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := s.SaveCheckpoint(); err != nil {
				fmt.Fprintf(debugLogWriter, "serve: periodic checkpoint: %v\n", err)
			}
		case <-s.ckptStop:
			return
		}
	}
}

// handleCheckpoint is POST /v1/checkpoint: snapshot now. It stays
// routable while draining — an operator forcing a final snapshot is part
// of shutdown, not new work.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	n, err := s.SaveCheckpoint()
	if err != nil {
		// Only the unconfigured-path case is the client's fault; marshal
		// and write failures (full disk, bad permissions) are the server's.
		status := http.StatusInternalServerError
		if errors.Is(err, errCheckpointDisabled) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"saved_blades": n, "path": s.cfg.CheckpointPath})
}
