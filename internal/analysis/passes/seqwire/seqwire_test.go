package seqwire_test

import (
	"testing"

	"tempest/internal/analysis/analysistest"
	"tempest/internal/analysis/passes/seqwire"
)

func TestSeqWire(t *testing.T) {
	analysistest.Run(t, seqwire.Analyzer, "internal/collect")
}
