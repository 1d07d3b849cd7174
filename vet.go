package ccs

import (
	"encoding/json"
	"fmt"

	"ccs/internal/vet"
)

// This file is the facade of the static-analysis pass (internal/vet): the
// Diagnostic type and code catalogue re-exported, VetNetwork over built
// networks, VetNetworkRequest over the data form the schema and the server
// speak, and the versioned VetReport JSON document behind `ccs vet -json`
// and POST /v1/vet.

// Diagnostic is one static-analysis finding about a network or spec: a
// machine-readable code and severity, a position (component index, spec
// marker, channel name), and a human-readable message. See the Code*
// constants for the catalogue. The JSON form is shared by
// Report.Diagnostics, VetReport and the /v1/vet endpoint.
type Diagnostic = vet.Diagnostic

// The diagnostic code catalogue, re-exported from internal/vet; see each
// code's documentation there.
const (
	CodeDeadSync          = vet.CodeDeadSync
	CodeRestrictionSink   = vet.CodeRestrictionSink
	CodeRelabelCollision  = vet.CodeRelabelCollision
	CodeRelabelRestricted = vet.CodeRelabelRestricted
	CodeSortMismatch      = vet.CodeSortMismatch
	CodeTauDivergence     = vet.CodeTauDivergence
	CodeUnguardedStart    = vet.CodeUnguardedStart
	CodeUndefinedChannel  = vet.CodeUndefinedChannel
	// CodeUnsatisfiableVector flags a synchronization-table rule that can
	// never fire (ghost part, or more parts than components able to supply
	// them) or whose visible result the restriction prunes.
	CodeUnsatisfiableVector = vet.CodeUnsatisfiableVector
)

// Diagnostic severities.
const (
	SeverityError   = vet.SeverityError
	SeverityWarning = vet.SeverityWarning
)

// VetNetwork statically analyzes a built network and an optional spec (nil
// skips the spec-side analyzers) and returns the findings. The error is
// non-nil only for a malformed network (Validate fails); defects of a
// well-formed network are diagnostics.
func VetNetwork(net *Network, spec *Process) ([]Diagnostic, error) {
	return vet.Network(net, spec)
}

// VetHasErrors reports whether any finding is an error — the bar
// `-strict-vet` and exit codes care about.
func VetHasErrors(diags []Diagnostic) bool { return vet.HasErrors(diags) }

// VetNetworkRequest resolves the request's components and spec (external
// references through load, exactly as Checker.Do would) and statically
// analyzes the result. Unlike Do, a missing spec is fine — the network is
// then vetted alone.
func VetNetworkRequest(nr NetworkRequest, load ProcessLoader) ([]Diagnostic, error) {
	net, spec, err := nr.BuildNetwork(load)
	if err != nil {
		return nil, err
	}
	return VetNetwork(net, spec)
}

// VetReport is the outcome of statically analyzing one network: the label
// it was submitted under (the description's file name on the CLI), the
// network's name, and the findings.
type VetReport struct {
	Label       string       `json:"label,omitempty"`
	Network     string       `json:"network,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// VetEnvelope is the versioned JSON document carrying vet reports — the
// body of `ccs vet -json` output and the /v1/vet response.
type VetEnvelope struct {
	Schema int         `json:"schema"`
	Vets   []VetReport `json:"vets"`
}

// EncodeVetReports renders vet reports as a versioned JSON document.
func EncodeVetReports(reps []VetReport) ([]byte, error) {
	return json.MarshalIndent(VetEnvelope{Schema: SchemaVersion, Vets: reps}, "", "  ")
}

// DecodeVetReports parses a versioned JSON vet document.
func DecodeVetReports(data []byte) ([]VetReport, error) {
	if _, err := scanJSON(data); err != nil {
		return nil, err
	}
	var env VetEnvelope
	if err := strictUnmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Schema > SchemaVersion {
		return nil, fmt.Errorf("ccs: vet schema version %d is newer than supported %d", env.Schema, SchemaVersion)
	}
	return env.Vets, nil
}
