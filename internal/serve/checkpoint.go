package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
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
// normalized registration proposal (enough to rebuild the pool key,
// operating point and base power map deterministically), the
// resolved initial temperature, the exactly-once bookkeeping, and the
// sim's exact dynamic state. Decoding ignores the "base_power_w" field of
// older files: restore derives the base power map from the proposal.
type checkpointBlade struct {
	bladeHead
	State cosim.TransientState `json:"state"`
}

// bladeHead is a checkpointBlade without its state: the part a save
// encodes with encoding/json before it streams the state's floats.
type bladeHead struct {
	Blade    string        `json:"blade"`
	InitialC float64       `json:"initial_c"`
	Proposal SteadyRequest `json:"proposal"`
	LastSeq  int64         `json:"last_seq,omitempty"`
	LastBody []byte        `json:"last_body,omitempty"`
}

// checkpointPayload is the checksummed part of a checkpoint file.
type checkpointPayload struct {
	SavedUnix int64             `json:"saved_unix"`
	Blades    []checkpointBlade `json:"blades"`
}

// checkpointFile is the on-disk envelope: a version gate, a SHA-256 over
// the exact payload bytes (a torn or bit-rotted file is detected, not
// half-restored), and the payload itself. A save writes the keys in the
// order version, payload, checksum_sha256, because the checksum is only
// known once the payload has streamed past the hasher; a restore decodes
// into this struct, so it accepts the keys in any order.
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
	payload := s.snapshot()
	if err := atomicWrite(s.cfg.CheckpointPath, payload.writeFile); err != nil {
		return 0, err
	}
	s.stats.checkpointSaves.Add(1)
	return len(payload.Blades), nil
}

// snapshot takes every live blade's checkpoint entry, each under the
// blade's step lock. The entries are shallow copies: a committed chunk
// builds a fresh body and never mutates an old one, and it exports into a
// fresh state once its blade's state is marked shared here, so chunks
// stepped while the snapshot is encoded never touch what it reads.
func (s *Server) snapshot() checkpointPayload {
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
		b.stateShared = true
		cb := checkpointBlade{
			bladeHead: bladeHead{
				Blade:    b.name,
				InitialC: b.initialC,
				Proposal: b.req,
				LastSeq:  b.lastSeq,
				LastBody: b.lastBody,
			},
			State: *b.state,
		}
		b.mu.Unlock()
		payload.Blades = append(payload.Blades, cb)
	}
	return payload
}

// writeFile streams p as a checkpoint envelope to w. Blades are written
// one at a time through one buffered writer, and only the payload bytes
// also pass through the hasher, so neither the payload nor the envelope
// is ever held in memory whole. The payload's keys are those of
// checkpointPayload's tags, and each blade is the bytes encoding/json's
// Encoder writes for it, its closing newline included, which the
// checksum covers like any other payload byte. A write error sticks in
// the buffered writer and surfaces at Flush.
func (p *checkpointPayload) writeFile(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sum := sha256.New()
	pw := io.MultiWriter(bw, sum)
	fmt.Fprintf(bw, `{"version":%d,"payload":`, checkpointVersion)
	fmt.Fprintf(pw, `{"saved_unix":%d,"blades":[`, p.SavedUnix)
	bl := bladeWriter{w: pw, buf: make([]byte, 0, 512)}
	for i := range p.Blades {
		if i > 0 {
			io.WriteString(pw, ",")
		}
		if err := bl.write(&p.Blades[i]); err != nil {
			return err
		}
	}
	io.WriteString(pw, "]}")
	fmt.Fprintf(bw, `,"checksum_sha256":"%x"}`, sum.Sum(nil))
	return bw.Flush()
}

// bladeWriter writes checkpoint blades to w. The head goes through
// encoding/json; the state's floats go through buf, a small reused
// buffer, so no blade is ever encoded in memory whole. The first
// unencodable float sticks in err.
type bladeWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// write writes cb followed by a newline, byte for byte as a json.Encoder
// would. The state's keys are spelled here in cosim.TransientState's
// field order and tags.
func (bl *bladeWriter) write(cb *checkpointBlade) error {
	head, err := json.Marshal(&cb.bladeHead)
	if err != nil {
		return err
	}
	bl.w.Write(head[:len(head)-1]) // the head without its closing brace
	st := &cb.State
	bl.buf = append(bl.buf[:0], `,"state":{"time_s":`...)
	bl.float(st.TimeS)
	bl.floats(`,"field_t":`, st.FieldT)
	bl.floats(`,"bc_h":`, st.BCH)
	bl.floats(`,"bc_t_fluid":`, st.BCTFluid)
	bl.buf = append(bl.buf, "}}\n"...)
	bl.w.Write(bl.buf)
	return bl.err
}

// floats appends key and vs as a JSON array, null when nil, writing buf
// out whenever it nears its capacity.
func (bl *bladeWriter) floats(key string, vs []float64) {
	bl.buf = append(bl.buf, key...)
	if vs == nil {
		bl.buf = append(bl.buf, "null"...)
		return
	}
	bl.buf = append(bl.buf, '[')
	for i, v := range vs {
		if i > 0 {
			bl.buf = append(bl.buf, ',')
		}
		bl.float(v)
		if len(bl.buf) > cap(bl.buf)-32 {
			bl.w.Write(bl.buf)
			bl.buf = bl.buf[:0]
		}
	}
	bl.buf = append(bl.buf, ']')
}

// float appends v in encoding/json's float64 format: the shortest
// decimal that parses back to v's bits, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). JSON has no NaN or infinity, so those fail, as they fail
// json.Marshal.
func (bl *bladeWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if bl.err == nil {
			bl.err = fmt.Errorf("serve: checkpoint: unsupported value %v", v)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(bl.buf, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	bl.buf = b
}

// atomicWrite streams a file to path through write, into a temp file in
// the same directory, then fsyncs, renames, and fsyncs the directory —
// the crash-safe publish idiom. The final directory sync is what makes a
// *successful* save durable: without it a power loss can undo the rename
// itself, so the previous checkpoint would survive but the save the
// caller was told succeeded would silently not.
func atomicWrite(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
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
// configured checkpoint path: each saved blade is registered from its
// normalized proposal (exactly the registration path), then its state is
// replaced with the checkpointed one, so the blade resumes at its exact
// simulated time —
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
	payload, err := readCheckpoint(raw)
	if err != nil {
		return 0, fmt.Errorf("serve: checkpoint %s: %w", s.cfg.CheckpointPath, err)
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

// readCheckpoint decodes a checkpoint file: the envelope, its version
// gate, the checksum over the payload bytes as the file holds them, and
// then the payload.
func readCheckpoint(raw []byte) (checkpointPayload, error) {
	var env checkpointFile
	if err := json.Unmarshal(raw, &env); err != nil {
		return checkpointPayload{}, err
	}
	if env.Version != checkpointVersion {
		return checkpointPayload{}, fmt.Errorf("version %d, want %d", env.Version, checkpointVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.Checksum {
		return checkpointPayload{}, errors.New("checksum mismatch (file corrupt?)")
	}
	var payload checkpointPayload
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		return checkpointPayload{}, fmt.Errorf("payload: %w", err)
	}
	return payload, nil
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
		lastBody: cb.LastBody,
	}
	_, err = s.addBlade(b, &p, &cb.State)
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
