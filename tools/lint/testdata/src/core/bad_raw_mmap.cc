// Known-bad fixture: raw mapping syscalls outside src/util/. Files are
// mapped through util::MappedFile (util/mapped_file.h), the one read-only
// caller of mmap and madvise.
#include <sys/mman.h>

#include <cstddef>

void fixture_raw_mmap(void* addr, std::size_t length) {
  ::madvise(addr, length, MADV_DONTNEED);  // flagged: use util::MappedFile
  munmap(addr, length);  // flagged: use util::MappedFile
}
