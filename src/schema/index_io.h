// Serialization of signature indexes.
//
// The signature view is the unit of exchange the paper advertises ("DBpedia
// Persons ... consists of 64 signatures, requiring only 3 KB of storage"):
// once computed, the index is all that sigma evaluation and sort refinement
// need, so persisting it avoids reparsing multi-gigabyte dumps. The format is
// a line-oriented text file:
//
//   # rdfsr-signature-index v1
//   properties <P>
//   <property name>            (P distinct lines, may contain spaces)
//   signatures <S>
//   <count> <k> <p_1> ... <p_k>  (S lines; p_i are 0-based property ids,
//                                 strictly increasing; no two lines share a
//                                 support; the counts sum to < 2^63)
//
// Subject names are intentionally not serialized (they defeat the size
// reduction); deserialized indexes therefore cannot answer subj(c)=constant
// rules, like an index built with keep_subject_names=false.

#ifndef RDFSR_SCHEMA_INDEX_IO_H_
#define RDFSR_SCHEMA_INDEX_IO_H_

#include <string>
#include <string_view>

#include "schema/signature_index.h"
#include "util/status.h"

namespace rdfsr::schema {

/// Serializes an index to the v1 text format.
std::string SerializeIndex(const SignatureIndex& index);

/// Parses the v1 text format.
Result<SignatureIndex> ParseIndex(std::string_view text);

/// Writes an index to a file.
Status WriteIndexFile(const SignatureIndex& index, const std::string& path);

/// Reads an index from a file.
Result<SignatureIndex> ReadIndexFile(const std::string& path);

}  // namespace rdfsr::schema

#endif  // RDFSR_SCHEMA_INDEX_IO_H_
