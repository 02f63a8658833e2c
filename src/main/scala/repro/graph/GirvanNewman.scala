package repro.graph

import scala.collection.mutable

/** Girvan–Newman community detection [Girvan & Newman, PNAS 2002], as used
  * by LoCEC Phase I to detect local communities inside each ego network.
  *
  * The algorithm repeatedly removes the edge with the highest betweenness
  * and keeps the partition (connected components) with the highest
  * modularity, measured on the *original* graph. A patience-based early stop
  * bounds the tail for the largest ego networks.
  *
  * One kernel over flat arrays does the work. The graph is a CSR adjacency
  * with edge ids; betweenness is Brandes' accumulation [Brandes, J. Math.
  * Sociol. 2001] into a `Double` array indexed by edge id, and the
  * predecessor lists share one array, a slot of size `degree` per node. A
  * full pass costs O(nm). After a removal only the component that lost the
  * edge is recomputed, from its own sources and for its own edges, so a step
  * costs O(n_c m_c) for that component c: at most O(m²n) for a whole run, and
  * far less once the graph has split.
  *
  * Exactness: the result equals that of a full recompute after every
  * removal, bit for bit, because every floating-point sum is made in a fixed
  * order.
  *  - Neighbour order is that of `g.copy()`: the edges of `g.edgeList()`
  *    appended to both endpoints in list order. It fixes the BFS order, the
  *    predecessor order and hence each betweenness sum.
  *  - An edge's betweenness sums its contributions over sources in
  *    ascending node order. Sources in other components contribute nothing,
  *    so the cached values of untouched components stay exact.
  *  - The edge removed is the maximum in `g.edgeList()` order (i ascending,
  *    neighbour order, j > i); values within 1e-12 tie, and a tie goes to
  *    the lexicographically smaller (i, j).
  *  - Modularity is recomputed from scratch, by [[modularity]], only when a
  *    removal splits a component. Otherwise the partition, and so Q, is
  *    unchanged and the step counts toward the patience. Q is never updated
  *    incrementally: another summation order could flip the 1e-12 test.
  */
object GirvanNewman {

  /** Detect communities; returns a community id (0-based, dense) per node,
    * aligned with `g.nodeIds`. Isolated nodes become singleton communities.
    *
    * @param patienceFrac stop after `max(8, patienceFrac * m)` consecutive
    *                     edge removals without a modularity improvement.
    */
  def detect(g: LocalGraph, patienceFrac: Double = 0.5): Array[Int] = {
    val n = g.numNodes
    if (n == 0) return Array.empty
    val m0 = g.numEdges
    if (m0 == 0) return Array.tabulate(n)(identity) // all singletons

    val origDegree = Array.tabulate(n)(g.degree)
    val origEdges = g.edgeList()
    val work = new Kernel(g.copy())

    var best = work.components()
    var bestQ = modularity(origEdges, origDegree, m0, best)
    val patience = math.max(8, (patienceFrac * m0).toInt)
    var sinceBest = 0

    while (work.remaining > 0 && sinceBest < patience) {
      if (work.removeMaxEdge()) {
        val comp = work.components()
        val q = modularity(origEdges, origDegree, m0, comp)
        if (q > bestQ + 1e-12) {
          bestQ = q
          best = comp
          sinceBest = 0
        } else {
          sinceBest += 1
        }
      } else {
        sinceBest += 1 // no split: same partition, same Q
      }
    }
    renumber(best)
  }

  /** Newman modularity Q = Σ_c [ e_c/m − (d_c/2m)² ] of a partition,
    * evaluated against the original edge set and degrees. */
  def modularity(origEdges: IndexedSeq[(Int, Int)], origDegree: Array[Int],
                 m: Int, comm: Array[Int]): Double = {
    if (m == 0) return 0.0
    val nComm = comm.max + 1
    val inside = new Array[Double](nComm)
    val degSum = new Array[Double](nComm)
    origEdges.foreach { case (a, b) => if (comm(a) == comm(b)) inside(comm(a)) += 1.0 }
    var i = 0
    while (i < comm.length) { degSum(comm(i)) += origDegree(i); i += 1 }
    var q = 0.0
    var c = 0
    while (c < nComm) {
      q += inside(c) / m - math.pow(degSum(c) / (2.0 * m), 2)
      c += 1
    }
    q
  }

  /** Edge betweenness of every current edge via Brandes' algorithm
    * (unweighted), summed in `g`'s neighbour order. Keys are
    * (minIndex, maxIndex), in `g.edgeList()` order. */
  def edgeBetweenness(g: LocalGraph): mutable.Map[(Int, Int), Double] = {
    val k = new Kernel(g)
    val values = k.betweenness()
    val bet = mutable.LinkedHashMap.empty[(Int, Int), Double]
    var e = 0
    while (e < k.m) { bet((k.lo(e), k.hi(e))) = values(e); e += 1 }
    bet
  }

  /** Renumber community ids to be dense, ordered by first occurrence. */
  private def renumber(comm: Array[Int]): Array[Int] = {
    val map = mutable.LinkedHashMap.empty[Int, Int]
    comm.map { c => map.getOrElseUpdate(c, map.size) }
  }

  /** The state of one GN run over `h`: a CSR adjacency in `h`'s neighbour
    * order, whose edges can only be removed, and its cached betweenness.
    * Edge ids follow `h.edgeList()`; edge `e` joins `lo(e) < hi(e)`. The
    * live neighbours of v are in slots `rowStart(v)` until `rowEnd(v)`; a
    * removal closes the gap, so the rest keep their order. */
  private final class Kernel(h: LocalGraph) {
    private val n = h.numNodes
    val m: Int = h.numEdges
    val lo = new Array[Int](m)
    val hi = new Array[Int](m)
    private val rowStart = new Array[Int](n + 1)
    private val rowEnd = new Array[Int](n)
    private val nbr = new Array[Int](2 * m)
    private val slotEdge = new Array[Int](2 * m)
    var remaining: Int = m

    locally {
      var v = 0
      while (v < n) {
        rowStart(v + 1) = rowStart(v) + h.degree(v)
        rowEnd(v) = rowStart(v + 1)
        v += 1
      }
      var e = 0
      v = 0
      while (v < n) {
        var t = rowStart(v)
        h.neighbors(v).foreach { w =>
          nbr(t) = w
          if (v < w) { lo(e) = v; hi(e) = w; slotEdge(t) = e; e += 1 }
          else slotEdge(t) = slotEdge(slotOf(w, v)) // row w < v is filled
          t += 1
        }
        v += 1
      }
    }

    private def slotOf(v: Int, w: Int): Int = {
      var t = rowStart(v)
      while (nbr(t) != w) t += 1
      t
    }

    private val bet = new Array[Double](m)
    // Nodes of the components whose betweenness is stale: every node at
    // first, then the component that lost the last removed edge.
    private val stale = Array.range(0, n)
    private var staleCount = n
    private val seen = new Array[Int](n)
    private var epoch = 0

    // Brandes workspace; predecessors of w live at rowStart(w) until
    // rowStart(w) + predCount(w).
    private val dist = Array.fill(n)(-1)
    private val sigma = new Array[Double](n)
    private val delta = new Array[Double](n)
    private val order = new Array[Int](n)
    private val predCount = new Array[Int](n)
    private val predNode = new Array[Int](2 * m)
    private val predEdge = new Array[Int](2 * m)

    /** Current betweenness by edge id (removed edges hold stale values). */
    def betweenness(): Array[Double] = {
      if (staleCount > 0) {
        java.util.Arrays.sort(stale, 0, staleCount)
        forEachEdgeOfStale(e => bet(e) = 0.0)
        var i = 0
        while (i < staleCount) { accumulate(stale(i)); i += 1 }
        // each undirected pair counted from both endpoints
        forEachEdgeOfStale(e => bet(e) = bet(e) / 2.0)
        staleCount = 0
      }
      bet
    }

    /** Remove the edge of maximum betweenness; returns whether its
      * component split. */
    def removeMaxEdge(): Boolean = {
      val e = maxBetweennessEdge()
      remaining -= 1
      unlink(lo(e), hi(e))
      unlink(hi(e), lo(e))
      epoch += 1
      staleCount = flood(lo(e), seen, epoch, stale, 0)
      val split = seen(hi(e)) != epoch
      if (split) staleCount = flood(hi(e), seen, epoch, stale, staleCount)
      split
    }

    private def unlink(v: Int, w: Int): Unit = {
      val t = slotOf(v, w)
      System.arraycopy(nbr, t + 1, nbr, t, rowEnd(v) - t - 1)
      System.arraycopy(slotEdge, t + 1, slotEdge, t, rowEnd(v) - t - 1)
      rowEnd(v) -= 1
    }

    /** Connected components, numbered 0.. in order of their smallest node
      * (the numbering of `LocalGraph.connectedComponents`). */
    def components(): Array[Int] = {
      val comp = Array.fill(n)(-1)
      val queue = new Array[Int](n)
      var next = 0
      var i = 0
      while (i < n) {
        if (comp(i) < 0) { flood(i, comp, next, queue, 0); next += 1 }
        i += 1
      }
      comp
    }

    /** First maximum in `edgeList()` order (i ascending, neighbour order,
      * j > i); values within 1e-12 tie, and a tie goes to the smaller (i, j). */
    private def maxBetweennessEdge(): Int = {
      val values = betweenness()
      var best = -1
      var bestVal = Double.NegativeInfinity
      var i = 0
      while (i < n) {
        var t = rowStart(i)
        while (t < rowEnd(i)) {
          val j = nbr(t)
          val v = values(slotEdge(t))
          if (i < j && (v > bestVal + 1e-12 ||
              (math.abs(v - bestVal) <= 1e-12 && (best < 0 ||
                i < lo(best) || (i == lo(best) && j < hi(best)))))) {
            bestVal = v; best = slotEdge(t)
          }
          t += 1
        }
        i += 1
      }
      best
    }

    /** BFS over live edges from `v0`, labelling each node not yet labelled
      * `id` and appending it to `queue` from `tail0`; returns the new tail. */
    private def flood(v0: Int, label: Array[Int], id: Int, queue: Array[Int], tail0: Int): Int = {
      label(v0) = id
      queue(tail0) = v0
      var head = tail0
      var tail = tail0 + 1
      while (head < tail) {
        val v = queue(head)
        head += 1
        var t = rowStart(v)
        val end = rowEnd(v)
        while (t < end) {
          val w = nbr(t)
          if (label(w) != id) { label(w) = id; queue(tail) = w; tail += 1 }
          t += 1
        }
      }
      tail
    }

    /** Applies `f` to every live edge of the stale components. */
    private def forEachEdgeOfStale(f: Int => Unit): Unit = {
      var i = 0
      while (i < staleCount) {
        val v = stale(i)
        var t = rowStart(v)
        while (t < rowEnd(v)) {
          if (v < nbr(t)) f(slotEdge(t))
          t += 1
        }
        i += 1
      }
    }

    /** Brandes' single-source pass from `s`: BFS counting shortest paths,
      * then dependency accumulation in reverse BFS order. Only the nodes `s`
      * reaches are touched, and their workspace is reset afterwards. */
    private def accumulate(s: Int): Unit = {
      dist(s) = 0
      sigma(s) = 1.0
      order(0) = s
      var head = 0
      var tail = 1
      while (head < tail) {
        val v = order(head)
        head += 1
        val next = dist(v) + 1
        val sv = sigma(v)
        var t = rowStart(v)
        val end = rowEnd(v)
        while (t < end) {
          val w = nbr(t)
          if (dist(w) < 0) { dist(w) = next; order(tail) = w; tail += 1 }
          if (dist(w) == next) {
            sigma(w) += sv
            val p = rowStart(w) + predCount(w)
            predNode(p) = v
            predEdge(p) = slotEdge(t)
            predCount(w) += 1
          }
          t += 1
        }
      }
      var j = tail - 1
      while (j >= 0) {
        val w = order(j)
        val sw = sigma(w)
        val dw = 1.0 + delta(w)
        var p = rowStart(w)
        val end = p + predCount(w)
        while (p < end) {
          val v = predNode(p)
          val c = sigma(v) / sw * dw
          bet(predEdge(p)) += c
          delta(v) += c
          p += 1
        }
        j -= 1
      }
      j = 0
      while (j < tail) {
        val v = order(j)
        dist(v) = -1; sigma(v) = 0.0; delta(v) = 0.0; predCount(v) = 0
        j += 1
      }
    }
  }
}
