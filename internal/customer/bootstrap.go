package customer

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/rpc"
)

// Bootstrap is the connection info a cloud operator hands an external
// customer (monatt-cloud writes it, monatt-cli reads it). It carries only
// public material plus a *path* to the customer's identity seed: the seed
// itself is provisioned out of band in a 0600 file, because the
// human-readable bootstrap JSON can be pasted into a terminal, a bug
// report or a chat window.
type Bootstrap struct {
	ControllerAddr   string `json:"controller_addr"`
	ControllerKey    string `json:"controller_key"`
	CustomerName     string `json:"customer_name"`
	CustomerSeedPath string `json:"customer_seed_path"` // raw Ed25519 seed file
}

// WriteBootstrap provisions an external customer: the identity's raw seed
// goes to path+".seed" (0600) and the bootstrap JSON naming it to path.
func WriteBootstrap(path, controllerAddr string, controllerKey []byte, id *cryptoutil.Identity) (Bootstrap, error) {
	bs := Bootstrap{
		ControllerAddr:   controllerAddr,
		ControllerKey:    base64.StdEncoding.EncodeToString(controllerKey),
		CustomerName:     id.Name,
		CustomerSeedPath: path + ".seed",
	}
	if err := cryptoutil.WriteSecretFile(bs.CustomerSeedPath, id.Seed()); err != nil {
		return bs, fmt.Errorf("writing customer seed: %w", err)
	}
	data, err := json.MarshalIndent(bs, "", "  ")
	if err != nil {
		return bs, err
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		return bs, fmt.Errorf("writing bootstrap: %w", err)
	}
	return bs, nil
}

// ReadBootstrap loads a bootstrap file and the seed it names into the
// Config of a customer reaching its controller over TCP. The caller sets
// the fault-tolerance fields before Connect.
func ReadBootstrap(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("reading bootstrap (is monatt-cloud running?): %w", err)
	}
	var bs Bootstrap
	if err := json.Unmarshal(data, &bs); err != nil {
		return Config{}, fmt.Errorf("parsing bootstrap %s: %w", path, err)
	}
	ctrlKey, err := base64.StdEncoding.DecodeString(bs.ControllerKey)
	if err != nil {
		return Config{}, fmt.Errorf("bootstrap controller key: %w", err)
	}
	seed, err := os.ReadFile(bs.CustomerSeedPath)
	if err != nil {
		return Config{}, fmt.Errorf("reading customer seed: %w", err)
	}
	id, err := cryptoutil.IdentityFromSeed(bs.CustomerName, seed)
	if err != nil {
		return Config{}, err
	}
	return Config{Identity: id, Network: rpc.TCPNetwork{}, Addr: bs.ControllerAddr, ControllerKey: ctrlKey}, nil
}
