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

// artifactMagic is the one artifact header written or read: a v4
// artifact carries its level plan and sharding fields. Gob skips fields
// either side lacks, so an artifact of another format would decode; its
// header is what ReadArtifact refuses it by, asking for a recompile.
const artifactMagic = "COPSEv4\n"

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
	if string(magic) != artifactMagic {
		return nil, &UnsupportedModelError{Reason: fmt.Sprintf("artifact header %q is not %q: recompile the model", magic, artifactMagic)}
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
	// staged from it.
	if err := c.Meta.Validate(); err != nil {
		return nil, fmt.Errorf("core: reading an artifact: %w", err)
	}
	return c, nil
}
