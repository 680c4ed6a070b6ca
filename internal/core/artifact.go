package core

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
)

// Artifact serialization: the compiler's output (a Compiled model) can be
// written to disk and shipped to the party that will encrypt and serve
// it — the analogue of the paper's generated C++ being compiled and
// linked against the runtime (§5).

// Artifact versions: v2 added the baby-step/giant-step staging (two
// split fields Meta no longer has, and the reduced RotationSteps); v3
// added the static level schedule (Meta.LevelPlan); v4 added the sharding
// fields (Meta.ForcedSPad, Compiled.Shard). The payload encoding is
// unchanged — gob is self-describing and skips fields either side lacks —
// so older artifacts still load: their zero-valued fields select the
// unsharded layout (v1–v3). Prepare stages every artifact from its
// plaintext matrices on the one BSGS kernel, so a v1 artifact, written
// for the naive one-rotation-per-diagonal kernel, gets the BSGS kernel
// like any other. A v1/v2 artifact carries no level plan; ReadArtifact
// plans it at load, with the result shuffle's headroom.
const (
	artifactMagic   = "COPSEv4\n"
	artifactMagicV3 = "COPSEv3\n"
	artifactMagicV2 = "COPSEv2\n"
	artifactMagicV1 = "COPSEv1\n"
)

// WriteArtifact serializes c.
func WriteArtifact(w io.Writer, c *Compiled) error {
	if _, err := io.WriteString(w, artifactMagic); err != nil {
		return err
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(c); err != nil {
		return fmt.Errorf("core: encoding artifact: %w", err)
	}
	return zw.Close()
}

// ReadArtifact deserializes a compiled model.
func ReadArtifact(r io.Reader) (*Compiled, error) {
	magic := make([]byte, len(artifactMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("core: reading artifact header: %w", err)
	}
	if string(magic) != artifactMagic && string(magic) != artifactMagicV3 && string(magic) != artifactMagicV2 && string(magic) != artifactMagicV1 {
		return nil, fmt.Errorf("core: not a COPSE artifact (bad magic %q)", magic)
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	c := &Compiled{}
	if err := gob.NewDecoder(zr).Decode(c); err != nil {
		return nil, fmt.Errorf("core: decoding artifact: %w", err)
	}
	// A shape Compile never produces is refused before anything is
	// planned or staged from it.
	if err := c.Meta.checkShape(); err != nil {
		return nil, fmt.Errorf("core: reading a %s artifact: %w", magic[:len(magic)-1], err)
	}
	if string(magic) == artifactMagicV2 || string(magic) == artifactMagicV1 {
		// Older artifacts were served at the chain top, result shuffle
		// included, and never promised a minimal chain: the plan keeps
		// the headroom to shuffle. A model the planner cannot schedule is
		// refused here, typed, like Compile refuses it.
		if c.Meta.LevelPlan, err = computeLevelPlan(&c.Meta, true); err != nil {
			return nil, fmt.Errorf("core: planning a %s artifact: %w", magic[:len(magic)-1], err)
		}
	}
	return c, nil
}
