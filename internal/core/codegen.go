package core

import (
	"bytes"
	"encoding/base64"
	"io"
	"text/template"
)

// GenerateProgram emits a standalone Go main specialized to the compiled
// model — the analogue of the paper's staging compiler emitting a C++
// program that links against the COPSE runtime (§5). The generated
// source embeds the serialized artifact and drives the public copse API;
// it builds inside (or against) this module.
func GenerateProgram(w io.Writer, c *Compiled) error {
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, c); err != nil {
		return err
	}
	data := struct {
		Artifact string
		Meta     string
		Features int
	}{
		Artifact: base64.StdEncoding.EncodeToString(buf.Bytes()),
		Meta:     c.Meta.String(),
		Features: c.Meta.NumFeatures,
	}
	return programTemplate.Execute(w, data)
}

var programTemplate = template.Must(template.New("main").Parse(
	`// Code generated by the COPSE staging compiler. DO NOT EDIT.
//
// Model: {{.Meta}}
//
// This program embeds the compiled model and serves secure inference
// queries from the command line:
//
//	go run . -features 3,5 [-backend bgv|clear] [-scenario offload|servermodel|clienteval|threeparty]
//
// On bgv the ring is the one the model's slot count picks.
package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"copse"
)

const artifactB64 = "{{.Artifact}}"

func main() {
	featArg := flag.String("features", "", "comma-separated quantized feature values ({{.Features}} expected)")
	backendArg := flag.String("backend", "bgv", "homomorphic backend: bgv or clear")
	scenarioArg := flag.String("scenario", "offload", "party configuration: offload, servermodel, clienteval or threeparty")
	workers := flag.Int("workers", 0, "goroutines per classification pass (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	raw, err := base64.StdEncoding.DecodeString(artifactB64)
	if err != nil {
		log.Fatalf("decoding embedded artifact: %v", err)
	}
	compiled, err := copse.ReadArtifact(bytes.NewReader(raw))
	if err != nil {
		log.Fatalf("reading embedded artifact: %v", err)
	}

	backend, err := copse.ParseBackend(*backendArg)
	if err != nil {
		log.Fatal(err)
	}
	scenario, err := copse.ParseScenario(*scenarioArg)
	if err != nil {
		log.Fatal(err)
	}

	var features []uint64
	for _, part := range strings.Split(*featArg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			log.Fatalf("bad feature value %q: %v", part, err)
		}
		features = append(features, v)
	}
	if len(features) != {{.Features}} {
		log.Fatalf("model wants {{.Features}} features, got %d", len(features))
	}

	// The embedded model is Maurice's; Diane encrypts the query and
	// decrypts the result, Sally classifies it.
	const model = "model"
	svc := copse.NewService(copse.WithBackend(backend), copse.WithScenario(scenario), copse.WithWorkers(*workers))
	defer svc.Close()
	if err := svc.Register(model, compiled); err != nil {
		log.Fatalf("staging the model: %v", err)
	}
	query, err := svc.EncryptQuery(model, features)
	if err != nil {
		log.Fatalf("encrypting query: %v", err)
	}
	encrypted, trace, err := svc.Classify(context.Background(), model, query)
	if err != nil {
		log.Fatalf("classifying: %v", err)
	}
	result, err := svc.DecryptResult(model, encrypted)
	if err != nil {
		log.Fatalf("decrypting result: %v", err)
	}

	meta := &compiled.Meta
	fmt.Printf("model: %s\n", meta)
	fmt.Printf("per-tree labels:")
	for _, l := range result.PerTree {
		fmt.Printf(" %s", meta.LabelNames[l])
	}
	fmt.Println()
	fmt.Printf("plurality: %s\n", meta.LabelNames[result.Plurality()])
	fmt.Printf("stage times: compare=%v reshuffle=%v levels=%v accumulate=%v total=%v\n",
		trace.Compare, trace.Reshuffle, trace.Levels, trace.Accumulate, trace.Total)
}
`))
