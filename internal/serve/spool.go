package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"thermogater/internal/sim"
)

// spoolSchema tags spool entries; loadSpool skips anything else. v1
// entries predate the removal of sweep jobs: they may hold a sweep and
// were filed under IDs hashed with a "kind" key, so they are skipped
// like any unreadable entry.
const spoolSchema = "thermogater/serve-spool/v2"

// spoolEntry is the on-disk form of an unfinished job: its identity
// (spec) and its exact resume point — the framed checkpoint plus the
// stream prefix that belongs to it. A restarted service re-admits the job
// and continues byte-identically.
type spoolEntry struct {
	Schema string  `json:"schema"`
	Spec   JobSpec `json:"spec"`
	Epoch  int     `json:"epoch"`
	// Stream is the job's telemetry stream up to the checkpoint
	// boundary (base64 via encoding/json's []byte rule).
	Stream []byte `json:"stream,omitempty"`
	// Ckpt is the framed checkpoint (sim.Checkpoint.Encode bytes).
	Ckpt []byte `json:"ckpt,omitempty"`
}

func (s *Supervisor) spoolPath(id string) string {
	return filepath.Join(s.cfg.SpoolDir, id+".job")
}

// writeSpool persists one unfinished job atomically (tmp + rename), so a
// kill mid-write leaves either the old entry or none — never a torn one.
func (s *Supervisor) writeSpool(j *Job) error {
	if s.cfg.SpoolDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.SpoolDir, 0o755); err != nil {
		return err
	}
	j.mu.Lock()
	e := spoolEntry{
		Schema: spoolSchema,
		Spec:   j.Spec,
		Epoch:  j.epoch,
		Ckpt:   j.ckpt,
	}
	if j.ckpt != nil {
		e.Stream = j.stream.Bytes()
	}
	j.mu.Unlock()
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	path := s.spoolPath(j.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// removeSpool deletes a settled job's entry; a missing file is fine.
func (s *Supervisor) removeSpool(id string) {
	if s.cfg.SpoolDir == "" {
		return
	}
	//lint:ignore errsink best-effort cleanup: a stale entry is re-settled on the next load
	os.Remove(s.spoolPath(id))
}

// loadSpool re-admits every spooled job at startup: each restores its
// stream prefix and checkpoint and queues for resumption. Unreadable
// entries are skipped with their files left in place for forensics —
// one bad entry must not keep the service down.
func (s *Supervisor) loadSpool() error {
	if s.cfg.SpoolDir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".job") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.cfg.SpoolDir, de.Name()))
		if err != nil {
			continue
		}
		var e spoolEntry
		if json.Unmarshal(b, &e) != nil || e.Schema != spoolSchema {
			continue
		}
		if err := s.admitSpooled(e); err != nil {
			return fmt.Errorf("serve: re-admitting spooled job %s: %w", e.Spec.ID(), err)
		}
	}
	return nil
}

// admitSpooled recreates one job from its spool entry and queues it.
// A corrupt checkpoint is caught here, before any reader can see the
// stream prefix: the job drops both and runs fresh, since a damaged
// resume point costs the progress, not the job. Any other checkpoint
// error fails the job when it runs.
func (s *Supervisor) admitSpooled(e spoolEntry) error {
	if err := e.Spec.Validate(); err != nil {
		return err
	}
	j := newJob(e.Spec, 0)
	if len(e.Ckpt) > 0 {
		if _, err := sim.ReadCheckpoint(bytes.NewReader(e.Ckpt)); !errors.Is(err, sim.ErrCorruptCheckpoint) {
			j.ckpt, j.epoch = e.Ckpt, e.Epoch
			//lint:ignore errsink StreamBuf.Write cannot fail
			j.stream.Write(e.Stream)
		}
	}
	s.mu.Lock()
	if _, ok := s.jobs[j.ID]; ok {
		s.mu.Unlock()
		return nil
	}
	j.seq = s.seq.Add(1)
	s.jobs[j.ID] = j
	s.mu.Unlock()
	return s.q.Push(j, true)
}
