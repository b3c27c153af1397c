// The minimal HTTP/1.1 subset of the gateway and load generator: bodyless
// pipelined requests, Content-Length framed responses, incremental parsing
// at arbitrary read boundaries, and hard failure on anything outside the
// subset.

#include "net/http.h"

#include <gtest/gtest.h>

#include <string>

namespace flowercdn {
namespace {

void Feed(HttpRequestParser* p, const std::string& s) {
  p->Append(s.data(), s.size());
}
void Feed(HttpResponseParser* p, const std::string& s) {
  p->Append(s.data(), s.size());
}

TEST(NetHttpTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  Feed(&parser, "GET /3/17 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
  HttpRequest req;
  ASSERT_TRUE(parser.Next(&req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/3/17");
  EXPECT_EQ(req.version, "HTTP/1.1");
  ASSERT_NE(req.Header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.Header("HOST"), "x");
  EXPECT_FALSE(parser.Next(&req));
  EXPECT_FALSE(parser.failed());
}

TEST(NetHttpTest, PipelinedRequestsPopInOrder) {
  HttpRequestParser parser;
  Feed(&parser,
       "GET /0/1 HTTP/1.1\r\n\r\nGET /0/2 HTTP/1.1\r\n\r\n"
       "GET /0/3 HTTP/1.1\r\n\r\n");
  HttpRequest req;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(parser.Next(&req));
    EXPECT_EQ(req.target, "/0/" + std::to_string(i));
  }
  EXPECT_FALSE(parser.Next(&req));
}

TEST(NetHttpTest, BareLfRequestPipelinedBeforeCrlfRequest) {
  // The bare-LF head must resolve at its own "\n\n" terminator, not merge
  // with the pipelined CRLF request behind it.
  HttpRequestParser parser;
  Feed(&parser,
       "GET /0/1 HTTP/1.1\nHost: a\n\n"
       "GET /0/2 HTTP/1.1\r\nHost: b\r\n\r\n");
  HttpRequest req;
  ASSERT_TRUE(parser.Next(&req));
  EXPECT_EQ(req.target, "/0/1");
  ASSERT_TRUE(parser.Next(&req));
  EXPECT_EQ(req.target, "/0/2");
  EXPECT_EQ(*req.Header("Host"), "b");
  EXPECT_FALSE(parser.Next(&req));
  EXPECT_FALSE(parser.failed());
}

TEST(NetHttpTest, RequestSplitAcrossReads) {
  const std::string wire = "GET /5/5 HTTP/1.1\r\nHost: a\r\n\r\n";
  for (size_t split = 0; split <= wire.size(); ++split) {
    HttpRequestParser parser;
    Feed(&parser, wire.substr(0, split));
    HttpRequest req;
    if (split < wire.size()) EXPECT_FALSE(parser.Next(&req));
    Feed(&parser, wire.substr(split));
    ASSERT_TRUE(parser.Next(&req)) << "split=" << split;
    EXPECT_EQ(req.target, "/5/5");
  }
}

TEST(NetHttpTest, RequestWithBodyFails) {
  HttpRequestParser parser;
  Feed(&parser, "POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc");
  HttpRequest req;
  EXPECT_FALSE(parser.Next(&req));
  EXPECT_TRUE(parser.failed());
}

TEST(NetHttpTest, OversizedHeadFails) {
  HttpRequestParser parser(64);
  std::string big = "GET /x HTTP/1.1\r\nPadding: ";
  big.append(200, 'p');
  Feed(&parser, big);
  HttpRequest req;
  EXPECT_FALSE(parser.Next(&req));
  EXPECT_TRUE(parser.failed());
}

TEST(NetHttpTest, ResponseRoundTrip) {
  std::string wire = BuildHttpResponse(
      200, "OK", {{"X-FlowerCDN-Source", "petal"}}, "hello");
  HttpResponseParser parser;
  Feed(&parser, wire);
  HttpResponse resp;
  ASSERT_TRUE(parser.Next(&resp));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "hello");
  ASSERT_NE(resp.Header("x-flowercdn-source"), nullptr);
  EXPECT_EQ(*resp.Header("x-flowercdn-source"), "petal");
}

TEST(NetHttpTest, ResponseSplitAcrossReads) {
  std::string wire =
      BuildHttpResponse(200, "OK", {}, std::string(1000, 'z')) +
      BuildHttpResponse(404, "Not Found", {}, "nope");
  for (size_t split : {size_t{1}, size_t{10}, size_t{40}, size_t{500},
                       wire.size() - 3}) {
    HttpResponseParser parser;
    Feed(&parser, wire.substr(0, split));
    Feed(&parser, wire.substr(split));
    HttpResponse resp;
    ASSERT_TRUE(parser.Next(&resp)) << "split=" << split;
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body.size(), 1000u);
    ASSERT_TRUE(parser.Next(&resp)) << "split=" << split;
    EXPECT_EQ(resp.status, 404);
    EXPECT_EQ(resp.body, "nope");
    EXPECT_FALSE(parser.Next(&resp));
    EXPECT_FALSE(parser.failed());
  }
}

TEST(NetHttpTest, ResponseWithoutContentLengthFails) {
  HttpResponseParser parser;
  Feed(&parser, "HTTP/1.1 200 OK\r\n\r\n");
  HttpResponse resp;
  EXPECT_FALSE(parser.Next(&resp));
  EXPECT_TRUE(parser.failed());
}

// The status code is exactly three digits (RFC 9112). Ten digits used to
// overflow the int accumulator; every other length fails the same way.
TEST(NetHttpTest, StatusCodeMustBeThreeDigits) {
  for (const char* line :
       {"HTTP/1.1 2000000000 OK", "HTTP/1.1 9999999999 OK", "HTTP/1.1 20 OK",
        "HTTP/1.1 2000 OK", "HTTP/1.1  OK", "HTTP/1.1 2x0 OK"}) {
    HttpResponseParser parser;
    Feed(&parser, std::string(line) + "\r\nContent-Length: 0\r\n\r\n");
    HttpResponse resp;
    EXPECT_FALSE(parser.Next(&resp)) << line;
    EXPECT_TRUE(parser.failed()) << line;
    EXPECT_EQ(parser.error(), "malformed status code") << line;
  }
  HttpResponseParser parser;
  Feed(&parser, "HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n");
  HttpResponse resp;
  ASSERT_TRUE(parser.Next(&resp));
  EXPECT_EQ(resp.status, 204);
}

TEST(NetHttpTest, BuildRequestIsParseable) {
  std::string wire = BuildHttpRequest("/1/2", {{"Host", "bench"}});
  HttpRequestParser parser;
  Feed(&parser, wire);
  HttpRequest req;
  ASSERT_TRUE(parser.Next(&req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/1/2");
}

}  // namespace
}  // namespace flowercdn
