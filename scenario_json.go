package powifi

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// ScenarioSchema identifies the declarative scenario JSON schema
// version accepted by LoadScenario and emitted by Scenario.MarshalJSON.
const ScenarioSchema = 1

// scenarioFile is the declarative JSON form of a Scenario: the schema
// version, the derived mode echoed for readability, and the settings.
// Execution state (WithProgress, WithTelemetry, ...) does not
// serialize.
type scenarioFile struct {
	Schema int    `json:"schema"`
	Mode   string `json:"mode,omitempty"`
	settings
}

// MarshalJSON renders the scenario's declarative form: only explicitly
// set options are emitted, under "schema": 1, with the derived mode
// echoed for readability. The output round-trips through LoadScenario.
func (s *Scenario) MarshalJSON() ([]byte, error) {
	return json.Marshal(scenarioFile{ScenarioSchema, s.Mode(), s.conf})
}

// LoadScenario parses the declarative JSON form into a validated
// Scenario — the inverse of MarshalJSON, and the engine behind the
// CLIs' -scenario flag. Unknown fields are rejected (a typo'd option
// must fail loudly, not silently fall back to a default), the schema
// version must match ScenarioSchema, and the same validation as
// NewScenario applies.
func LoadScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f scenarioFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("powifi: scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("powifi: scenario: trailing data after the JSON object")
	}
	if f.Schema != ScenarioSchema {
		return nil, fmt.Errorf("powifi: scenario schema %d unsupported (this build reads schema %d)",
			f.Schema, ScenarioSchema)
	}
	sc := &Scenario{conf: f.settings}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if f.Mode != "" && f.Mode != sc.Mode() {
		return nil, fmt.Errorf("powifi: scenario declares mode %q but its options resolve to %q",
			f.Mode, sc.Mode())
	}
	return sc, nil
}
