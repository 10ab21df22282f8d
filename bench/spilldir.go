package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// makeSpillDir creates this run's private temporary directory under
// base and points TMPDIR at it, so the session's run files and the TCP
// workers' spill directories (which use os.MkdirTemp) all land there.
// cleanup removes it. fsName names the filesystem it is on, because
// spill timings on a disk-backed directory and on tmpfs differ.
func makeSpillDir(base string) (dir, fsName string, cleanup func(), err error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", "", nil, fmt.Errorf("spill dir: %w", err)
	}
	dir, err = os.MkdirTemp(base, "run-")
	if err != nil {
		return "", "", nil, fmt.Errorf("spill dir: %w", err)
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return "", "", nil, fmt.Errorf("spill dir: %w", err)
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return "", "", nil, fmt.Errorf("spill dir: %w", err)
	}
	return dir, fsType(dir), func() { os.RemoveAll(dir) }, nil
}

// fsType names the filesystem holding path, from its statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}
