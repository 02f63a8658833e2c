package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The flat-array GN kernel against the original implementation kept in
  * `GirvanNewmanReference`: identical partitions and bitwise-equal edge
  * betweenness on random planted, exact-tie and disconnected graphs, with
  * edges given in scrambled order. */
class GirvanNewmanExactSpec extends AnyFunSuite {

  private val patienceFracs = Seq(0.0, 0.5, 1.0)

  /** The edges in random order, each with its endpoints randomly swapped. */
  private def scramble(edges: Seq[(Long, Long)], rng: Random): Seq[(Long, Long)] =
    rng.shuffle(edges).map { case (a, b) => if (rng.nextBoolean()) (b, a) else (a, b) }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  private def assertBetweennessSame(g: LocalGraph, what: String): Unit = {
    val got = GirvanNewman.edgeBetweenness(g).toSeq
    val want = GirvanNewmanReference.edgeBetweenness(g).toSeq
    assert(got.map(_._1) == want.map(_._1), what)
    got.zip(want).foreach { case ((e, v), (_, r)) =>
      assert(bits(v) == bits(r), s"$what: edge $e betweenness $v, reference $r")
    }
  }

  /** Same partition as the reference, and bitwise-equal betweenness both in
    * `g`'s own neighbour order and in the `g.copy()` order `detect` uses. */
  private def assertSame(g: LocalGraph, patienceFrac: Double, what: String): Unit = {
    val got = GirvanNewman.detect(g, patienceFrac)
    val want = GirvanNewmanReference.detect(g, patienceFrac)
    assert(got.toSeq == want.toSeq, s"$what, patienceFrac $patienceFrac")
    assertBetweennessSame(g, what)
    assertBetweennessSame(g.copy(), s"$what (copy)")
  }

  /** A planted-partition graph: 2–`maxNodes` nodes in 1–4 blocks, mean
    * in-block degree 1.5–12 and about one cross-block edge per node. */
  private def planted(rng: Random, maxNodes: Int): (Seq[Long], Seq[(Long, Long)]) = {
    val n = 2 + rng.nextInt(maxNodes - 1)
    val blocks = 1 + rng.nextInt(4)
    val block = Array.fill(n)(rng.nextInt(blocks))
    val pIn = math.min(1.0, (1.5 + 10.5 * rng.nextDouble()) / math.max(1, n / blocks))
    val pOut = 1.5 * rng.nextDouble() / n
    val edges = for {
      i <- 0 until n; j <- i + 1 until n
      if rng.nextDouble() < (if (block(i) == block(j)) pIn else pOut)
    } yield (i.toLong, j.toLong)
    ((0 until n).map(_.toLong), edges)
  }

  test("random planted graphs: same partitions and betweenness as the reference") {
    val rng = new Random(20020611)
    (0 until 510).foreach { i =>
      val (nodes, edges) = planted(rng, 60)
      val g = LocalGraph(nodes, scramble(edges, rng))
      assertSame(g, patienceFracs(i % 3), s"planted graph $i")
    }
  }

  test("exact-tie families: bridged cliques, rings and stars match the reference") {
    val rng = new Random(7)
    def clique(off: Int, k: Int) =
      for { i <- 0 until k; j <- i + 1 until k } yield ((off + i).toLong, (off + j).toLong)
    val families =
      (2 to 8).map(k => s"two $k-cliques" -> (2 * k, clique(0, k) ++ clique(k, k) :+ ((0L, k.toLong)))) ++
      (3 to 12).map(n => s"$n-ring" -> (n, (0 until n).map(i => (i.toLong, ((i + 1) % n).toLong)))) ++
      (2 to 10).map(n => s"$n-star" -> (n, (1 until n).map(i => (0L, i.toLong))))
    for ((name, (n, edges)) <- families; order <- 0 until 3; pf <- patienceFracs) {
      val es = if (order == 0) edges else scramble(edges, rng)
      assertSame(LocalGraph((0 until n).map(_.toLong), es), pf, s"$name, order $order")
    }
  }

  test("disconnected graphs with isolated nodes match the reference") {
    val rng = new Random(11)
    (0 until 60).foreach { i =>
      val parts = (0 until 1 + rng.nextInt(3)).map(_ => planted(rng, 20))
      val offsets = parts.scanLeft(0L)(_ + _._1.size)
      val edges = parts.zip(offsets).flatMap { case ((_, es), off) =>
        es.map { case (a, b) => (a + off, b + off) }
      }
      val n = offsets.last + 1 + rng.nextInt(5) // trailing isolated nodes
      val g = LocalGraph((0L until n).map(x => (x * 7919) % 100003), // ids interleave parts
        scramble(edges.map { case (a, b) => ((a * 7919) % 100003, (b * 7919) % 100003) }, rng))
      patienceFracs.foreach(pf => assertSame(g, pf, s"disconnected graph $i"))
    }
  }
}
