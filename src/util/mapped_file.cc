#include "util/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"

namespace rdfsr::util {

namespace {

Status CannotOpen(const std::string& path, int err) {
  return Status::NotFound("cannot open file: " + path + ": " +
                          std::strerror(err));
}

}  // namespace

Result<std::size_t> RegularFileSize(const std::string& path) {
  RDFSR_FAILPOINT("ntriples.read-file");
  struct stat sb;
  if (::stat(path.c_str(), &sb) != 0) return CannotOpen(path, errno);
  if (S_ISDIR(sb.st_mode)) {
    return Status::InvalidArgument("not a regular file (is a directory): " +
                                   path);
  }
  if (!S_ISREG(sb.st_mode)) {
    return Status::InvalidArgument("not a regular file: " + path);
  }
  return static_cast<std::size_t>(sb.st_size);
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const Result<std::size_t> checked = RegularFileSize(path);
  if (!checked.ok()) return checked.status();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return CannotOpen(path, errno);
  // The size comes from the open file: the path may have changed since the
  // stat. mmap of 0 bytes fails, so an empty file maps nothing.
  struct stat sb;
  void* data = nullptr;
  int err = 0;
  if (::fstat(fd, &sb) != 0) {
    err = errno;
  } else if (sb.st_size > 0) {
    data = ::mmap(nullptr, static_cast<std::size_t>(sb.st_size), PROT_READ,
                  MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) err = errno;
  }
  ::close(fd);  // the mapping keeps the file
  if (err != 0) {
    return Status::Internal("cannot map file: " + path + ": " +
                            std::strerror(err));
  }
  return MappedFile(static_cast<char*>(data),
                    data == nullptr ? 0 : static_cast<std::size_t>(sb.st_size));
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void MappedFile::Release(const char* begin, const char* end) const {
  const auto first_byte = reinterpret_cast<std::uintptr_t>(begin);
  const auto end_byte = reinterpret_cast<std::uintptr_t>(end);
  const auto base = reinterpret_cast<std::uintptr_t>(data_);
  RDFSR_CHECK(base <= first_byte && first_byte <= end_byte &&
              end_byte <= base + size_)
      << "Release range outside the mapping";
  static const auto kPage = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t first = (first_byte + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t last = end_byte & ~(kPage - 1);
  if (first >= last) return;
  // Advisory: if the kernel refuses (locked pages, say), the pages stay
  // resident and nothing else changes.
  ::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
}

}  // namespace rdfsr::util
