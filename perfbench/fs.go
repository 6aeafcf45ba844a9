package main

import "syscall"

// filesystemOf names the filesystem holding dir and reports whether an
// fsync there reaches a device (tmpfs and ramfs keep pages in memory,
// so their fsync returns at once).
func filesystemOf(dir string) (name string, realFsync bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", true
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4", true
	case 0x58465342:
		return "xfs", true
	case 0x9123683E:
		return "btrfs", true
	case 0x794C7630:
		return "overlayfs", true
	case 0x01021994:
		return "tmpfs", false
	case 0x858458F6:
		return "ramfs", false
	default:
		return "unknown", true
	}
}
