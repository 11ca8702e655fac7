package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// The POST /v1/deploy envelope is decoded in place. json.Decoder's
// buffer growth and json.RawMessage's copies of the instance bytes were
// most of a cached deploy's garbage, and json.Unmarshal scans the
// instance bytes twice, once to validate and once to skip them, so the
// body is read once into a pooled buffer, checked with json.Valid, and
// walked: the workflow and network are left as slices of that buffer
// (wfio.Workflow and wfio.Network hash and decode them and keep no raw
// bytes) and the other members are json.Unmarshal'd on their own.
// Whatever the in-place decode does not accept goes through
// decodeBody's json.Decoder over the same bytes, so every error
// response is that reference's, and a body accepted in place decodes as
// the reference decodes it (FuzzDeployEnvelope).

// inPlace is a JSON value kept as a slice of the document it was
// decoded from. Unlike json.RawMessage it copies nothing, so it is valid
// only while that document's buffer is.
type inPlace []byte

// UnmarshalJSON keeps data itself, capped so that an append cannot
// write into the rest of the document.
func (v *inPlace) UnmarshalJSON(data []byte) error {
	*v = data[:len(data):len(data)]
	return nil
}

// deployKeys are deployRequest's JSON names (TestDeployKeysMatchRequest).
var deployKeys = []string{
	"workflow", "network", "id", "workflowWdl", "algorithm", "seed", "timeoutMs",
	"maxExecTime", "maxTimePenalty", "maxServerLoad", "maxMakespan",
}

// bodyBufs pools the buffers deploy bodies are read and decoded in.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decode reads and decodes the envelope, then the workflow and network
// it carries, answering 400 or 413 itself on failure. The body buffer
// goes back to its pool on return, so req keeps no alias of it.
func (req *deployRequest) decode(w http.ResponseWriter, r *http.Request) (*workflow.Workflow, *network.Network, bool) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		req.Workflow, req.Network = nil, nil
		putBuf(buf)
	}()
	if !decodeEnvelope(w, r, buf, req) {
		return nil, nil, false
	}
	wf, n, err := decodeInstance(json.RawMessage(req.Workflow), req.WorkflowWDL, req.Network)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	return wf, n, true
}

// decodeEnvelope is decodeBody for a deploy request, reading the body
// into buf. It takes the in-place path when the whole body reads and is
// valid JSON that decodeInPlace accepts; anything else, a read error
// included, is decoded by decodeBody's json.Decoder over the bytes read
// and then the read's error.
func decodeEnvelope(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, req *deployRequest) bool {
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	body := buf.Bytes()
	if err == nil && json.Valid(body) && decodeInPlace(body, req) {
		return true
	}
	*req = deployRequest{}
	var rest io.Reader = bytes.NewReader(body)
	if err != nil {
		rest = io.MultiReader(rest, errReader{err})
	}
	return decodeFrom(w, rest, req)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeInPlace decodes doc, a valid JSON document, into req and
// reports true when doc is an object whose every key is written without
// escapes and folds to a deployKeys name under bytes.EqualFold,
// encoding/json's rule for matching a key to a field: the keys
// DisallowUnknownFields accepts. The workflow and network become
// slices of doc, the last of each as in encoding/json, and the other
// members, in their order, are json.Unmarshal'd as one object.
func decodeInPlace(doc []byte, req *deployRequest) bool {
	i := skipSpace(doc, 0)
	if doc[i] != '{' {
		return false
	}
	rest := bodyBufs.Get().(*bytes.Buffer)
	defer putBuf(rest)
	rest.WriteByte('{')
	for i = skipSpace(doc, i+1); doc[i] == '"'; {
		n := bytes.IndexByte(doc[i+1:], '"')
		key := doc[i+1 : i+1+n]
		if !isDeployKey(key) {
			return false
		}
		v := skipSpace(doc, skipSpace(doc, i+n+2)+1) // past the colon
		end := skipValue(doc, v)
		switch {
		case bytes.EqualFold(key, []byte("workflow")):
			req.Workflow = doc[v:end:end]
		case bytes.EqualFold(key, []byte("network")):
			req.Network = doc[v:end:end]
		default:
			if rest.Len() > 1 {
				rest.WriteByte(',')
			}
			rest.Write(doc[i:end])
		}
		if i = skipSpace(doc, end); doc[i] == ',' {
			i = skipSpace(doc, i+1)
		}
	}
	rest.WriteByte('}')
	return json.Unmarshal(rest.Bytes(), req) == nil
}

// putBuf returns buf to bodyBufs unless it has grown past maxPooledBuf.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		buf.Reset()
		bodyBufs.Put(buf)
	}
}

// isDeployKey reports whether key, as written, names a deployRequest
// field. A key with a backslash never does: the first quote after its
// start may be an escaped one.
func isDeployKey(key []byte) bool {
	if bytes.IndexByte(key, '\\') >= 0 {
		return false
	}
	for _, k := range deployKeys {
		if bytes.EqualFold(key, []byte(k)) {
			return true
		}
	}
	return false
}

func skipSpace(doc []byte, i int) int {
	for i < len(doc) && (doc[i] == ' ' || doc[i] == '\t' || doc[i] == '\n' || doc[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the index just past the valid JSON value that
// starts at doc[i].
func skipValue(doc []byte, i int) int {
	depth := 0
	for ; i < len(doc); i++ {
		switch doc[i] {
		case '"':
			for i++; i < len(doc) && doc[i] != '"'; i++ {
				if doc[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			if depth == 0 {
				return i // a number or literal ends at its object's close
			}
			depth--
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
			continue
		default:
			continue
		}
		if depth == 0 {
			return i + 1
		}
	}
	return i
}
