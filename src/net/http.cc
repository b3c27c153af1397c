#include "net/http.h"

#include <algorithm>
#include <cctype>

namespace flowercdn {

namespace {

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Locates the end of a message head ("\r\n\r\n", tolerating bare "\n\n").
/// Returns npos when the head is still incomplete.
size_t FindHeadEnd(const std::string& buf, size_t* head_len) {
  // Take whichever terminator occurs first: a bare-LF head followed by a
  // pipelined CRLF head must not resolve at the later CRLF terminator.
  size_t crlf = buf.find("\r\n\r\n");
  size_t lf = buf.find("\n\n");
  if (crlf != std::string::npos &&
      (lf == std::string::npos || crlf < lf)) {
    *head_len = crlf + 4;
    return crlf;
  }
  if (lf != std::string::npos) {
    *head_len = lf + 2;
    return lf;
  }
  return std::string::npos;
}

/// Splits a head into lines (without terminators). The first line is the
/// request/status line, the rest are header lines.
std::vector<std::string_view> SplitLines(std::string_view head) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < head.size()) {
    size_t nl = head.find('\n', start);
    if (nl == std::string_view::npos) nl = head.size();
    std::string_view line = head.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back(line);
    start = nl + 1;
  }
  return lines;
}

bool ParseHeaderLine(std::string_view line, HttpHeader* out) {
  size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  out->name = std::string(Trim(line.substr(0, colon)));
  out->value = std::string(Trim(line.substr(colon + 1)));
  return true;
}

}  // namespace

const std::string* FindHeader(const std::vector<HttpHeader>& headers,
                              std::string_view name) {
  for (const HttpHeader& h : headers) {
    if (IEquals(h.name, name)) return &h.value;
  }
  return nullptr;
}

// --- Request parser -----------------------------------------------------------

void HttpRequestParser::Fail(const std::string& reason) {
  failed_ = true;
  error_ = reason;
  buf_.clear();
}

void HttpRequestParser::Append(const char* data, size_t n) {
  if (failed_) return;
  buf_.append(data, n);
}

bool HttpRequestParser::Next(HttpRequest* out) {
  if (failed_) return false;
  size_t head_len = 0;
  if (FindHeadEnd(buf_, &head_len) == std::string::npos) {
    if (buf_.size() > max_head_bytes_) Fail("request head too large");
    return false;
  }
  if (head_len > max_head_bytes_) {
    Fail("request head too large");
    return false;
  }

  std::vector<std::string_view> lines =
      SplitLines(std::string_view(buf_).substr(0, head_len));
  if (lines.empty()) {
    Fail("empty request head");
    return false;
  }

  HttpRequest req;
  {
    std::string_view line = lines[0];
    size_t sp1 = line.find(' ');
    size_t sp2 = sp1 == std::string_view::npos
                     ? std::string_view::npos
                     : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      Fail("malformed request line");
      return false;
    }
    req.method = std::string(line.substr(0, sp1));
    req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    req.version = std::string(Trim(line.substr(sp2 + 1)));
    if (req.version != "HTTP/1.1" && req.version != "HTTP/1.0") {
      Fail("unsupported version " + req.version);
      return false;
    }
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    HttpHeader h;
    if (!ParseHeaderLine(lines[i], &h)) {
      Fail("malformed header line");
      return false;
    }
    req.headers.push_back(std::move(h));
  }
  const std::string* content_length = req.Header("Content-Length");
  if (content_length != nullptr && *content_length != "0") {
    Fail("request bodies are not supported");
    return false;
  }

  buf_.erase(0, head_len);
  *out = std::move(req);
  return true;
}

// --- Response parser ----------------------------------------------------------

void HttpResponseParser::Fail(const std::string& reason) {
  failed_ = true;
  error_ = reason;
  buf_.clear();
}

void HttpResponseParser::Append(const char* data, size_t n) {
  if (failed_) return;
  buf_.append(data, n);
}

bool HttpResponseParser::Next(HttpResponse* out) {
  if (failed_) return false;
  size_t head_len = 0;
  if (FindHeadEnd(buf_, &head_len) == std::string::npos) {
    if (buf_.size() > max_head_bytes_) Fail("response head too large");
    return false;
  }

  std::vector<std::string_view> lines =
      SplitLines(std::string_view(buf_).substr(0, head_len));
  if (lines.empty()) {
    Fail("empty response head");
    return false;
  }

  HttpResponse resp;
  {
    std::string_view line = lines[0];
    size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos ||
        line.substr(0, 5) != "HTTP/") {
      Fail("malformed status line");
      return false;
    }
    size_t sp2 = line.find(' ', sp1 + 1);
    std::string_view code = line.substr(
        sp1 + 1, sp2 == std::string_view::npos ? std::string_view::npos
                                               : sp2 - sp1 - 1);
    resp.status = 0;
    // RFC 9112: status-code = 3DIGIT.
    if (code.size() != 3) {
      Fail("malformed status code");
      return false;
    }
    for (char ch : code) {
      if (ch < '0' || ch > '9') {
        Fail("malformed status code");
        return false;
      }
      resp.status = resp.status * 10 + (ch - '0');
    }
    if (sp2 != std::string_view::npos) {
      resp.reason = std::string(Trim(line.substr(sp2 + 1)));
    }
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    HttpHeader h;
    if (!ParseHeaderLine(lines[i], &h)) {
      Fail("malformed header line");
      return false;
    }
    resp.headers.push_back(std::move(h));
  }

  const std::string* content_length = resp.Header("Content-Length");
  if (content_length == nullptr) {
    Fail("response without Content-Length");
    return false;
  }
  size_t body_len = 0;
  for (char ch : *content_length) {
    if (ch < '0' || ch > '9') {
      Fail("malformed Content-Length");
      return false;
    }
    body_len = body_len * 10 + static_cast<size_t>(ch - '0');
    if (body_len > max_body_bytes_) {
      Fail("response body too large");
      return false;
    }
  }
  if (buf_.size() < head_len + body_len) return false;  // body incomplete

  resp.body = buf_.substr(head_len, body_len);
  buf_.erase(0, head_len + body_len);
  *out = std::move(resp);
  return true;
}

// --- Builders -----------------------------------------------------------------

std::string BuildHttpRequest(std::string_view target,
                             const std::vector<HttpHeader>& headers) {
  std::string out;
  out.reserve(64 + target.size());
  out.append("GET ").append(target).append(" HTTP/1.1\r\n");
  for (const HttpHeader& h : headers) {
    out.append(h.name).append(": ").append(h.value).append("\r\n");
  }
  out.append("\r\n");
  return out;
}

std::string BuildHttpResponse(int status, std::string_view reason,
                              const std::vector<HttpHeader>& headers,
                              std::string_view body) {
  std::string out;
  out.reserve(128 + body.size());
  out.append("HTTP/1.1 ").append(std::to_string(status)).append(" ");
  out.append(reason).append("\r\n");
  for (const HttpHeader& h : headers) {
    out.append(h.name).append(": ").append(h.value).append("\r\n");
  }
  out.append("Content-Length: ")
      .append(std::to_string(body.size()))
      .append("\r\n\r\n");
  out.append(body);
  return out;
}

}  // namespace flowercdn
