//===- FileIO.cpp - Whole-file reads --------------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace lna;

int lna::readWholeFile(const std::string &Path, std::string &Out) {
  Out.clear();
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return errno;
  struct stat St;
  int Err = ::fstat(Fd, &St) != 0 ? errno : 0;
  // A regular file is read with one call sized one byte past its length,
  // so the next call's 0 confirms the end without regrowing. Pipes and
  // other special files report no length and grow by doubling. A
  // directory opens, but its first read fails with EISDIR.
  size_t Len = 0;
  if (Err == 0)
    Out.resize(S_ISREG(St.st_mode) ? static_cast<size_t>(St.st_size) + 1
                                   : 4096);
  while (Err == 0) {
    if (Len == Out.size())
      Out.resize(2 * Out.size());
    ssize_t N = ::read(Fd, Out.data() + Len, Out.size() - Len);
    if (N > 0)
      Len += static_cast<size_t>(N);
    else if (N == 0)
      break;
    else if (errno != EINTR)
      Err = errno;
  }
  ::close(Fd);
  Out.resize(Err == 0 ? Len : 0);
  return Err;
}
