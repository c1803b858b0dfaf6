//===- FileIO.h - Whole-file reads ----------------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way the tools read an input file whole: open, fstat, and a
/// single read sized from the file's length. A stream-based read
/// (ifstream -> stringstream -> str()) copies the bytes twice and, worse,
/// opens a directory as an empty stream; this helper rejects a directory
/// with EISDIR instead.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SUPPORT_FILEIO_H
#define LNA_SUPPORT_FILEIO_H

#include <string>

namespace lna {

/// Reads all of \p Path into \p Out. Returns 0 on success, else the errno
/// of the failure (EISDIR for a directory) with \p Out left empty.
int readWholeFile(const std::string &Path, std::string &Out);

} // namespace lna

#endif // LNA_SUPPORT_FILEIO_H
