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

// Artifact versions: v2 added the BSGS staging fields (Meta.UseBSGS,
// Meta.BSGSPlans, the reduced RotationSteps); v3 added the static level
// schedule (Meta.LevelPlan); v4 added the sharding fields
// (Meta.ForcedSPad, Compiled.Shard). The payload encoding is unchanged —
// gob is self-describing — so older artifacts still load: their
// zero-valued fields select the naive kernel (v1) and unsharded layout
// (v1–v3) they were staged for. A v1/v2 artifact carries no level plan;
// ReadArtifact plans it at load, with the result shuffle's headroom.
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
