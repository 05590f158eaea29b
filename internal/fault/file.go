package fault

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReadPlanFile loads and validates a JSON fault plan: a Plan encoded by
// encoding/json.
func ReadPlanFile(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return &p, nil
}
