package service

import (
	"errors"
	"net/http"

	"repro/internal/api"
	"repro/internal/experiments"
)

// apiVersion stamps every /v1 JSON body (job views, listings, error
// envelopes, stream events). The constant — and the envelope shape —
// live in internal/api, shared with the fleet wire surface so the two
// cannot drift.
const apiVersion = api.Version

// apiParamError maps a parameter-validation failure to the envelope,
// surfacing the offending field path when the experiments layer names
// one.
func apiParamError(w http.ResponseWriter, err error) {
	var pe *experiments.ParamError
	if errors.As(err, &pe) {
		api.WriteError(w, http.StatusBadRequest, "invalid_param", pe.Field, err.Error())
		return
	}
	api.WriteError(w, http.StatusBadRequest, "invalid_param", "", err.Error())
}
