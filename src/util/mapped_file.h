// Whole-file input for loads: the checks every whole-file read makes before
// it opens anything, and a read-only memory mapping of a file.
//
// A load reads its input front to back and keeps only what it extracted.
// Mapping the file instead of copying it into a heap buffer, and giving back
// each page once it has been read (MappedFile::Release), keeps the file out
// of the process's resident set: its pages stay in the page cache, not in
// the process. The mapping is private and never written, so a page given
// back loses nothing — a later read faults it in again from the page cache
// with the same bytes.
//
// This is the one place the program calls mmap, munmap or madvise (the
// raw-mmap rule of tools/lint/rdfsr_lint.py): MADV_DONTNEED on a written or
// anonymous mapping discards data, so the read-only wrapper is its only
// caller.

#ifndef RDFSR_UTIL_MAPPED_FILE_H_
#define RDFSR_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rdfsr::util {

/// The size of the regular file at `path`, decided from its stat before
/// anything opens it: the shared prologue of every whole-file read. Fails
/// with kNotFound when `path` cannot be stat'ed, and with kInvalidArgument
/// naming the path when it is not a regular file (a directory cannot be
/// read, opening a FIFO blocks until a writer comes, and a FIFO or a device
/// reports size 0). Carries the ntriples.read-file failpoint.
Result<std::size_t> RegularFileSize(const std::string& path);

/// A read-only private mapping of a whole regular file, unmapped on
/// destruction. Move-only.
class MappedFile {
 public:
  /// Maps the regular file at `path`, after RegularFileSize's checks. An
  /// empty file maps nothing (text() is empty).
  static Result<MappedFile> Open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// The file's bytes. A page of them that another process truncates away
  /// while they are mapped raises SIGBUS when read.
  std::string_view text() const { return {data_, size_}; }
  std::size_t size() const { return size_; }

  /// Gives back the resident pages that lie wholly inside [begin, end), a
  /// range of text(); the partial pages at either end stay. The bytes do not
  /// change: a later read faults a page in again. Safe to call from several
  /// threads at once.
  void Release(const char* begin, const char* end) const;

 private:
  MappedFile(char* data, std::size_t size) : data_(data), size_(size) {}

  char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace rdfsr::util

#endif  // RDFSR_UTIL_MAPPED_FILE_H_
