"""Byte pins of the command line: every subcommand form on the six fixtures.

Each form runs through ``cli.main`` in-process; its exit code and the
sha256 of its stdout and stderr are pinned, the exit-2 refusals included
(a grid-only subcommand on a simplicial chain, a negative node budget, a
usage error).  A change to how reports or records are built must not move
a byte of any of them.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from filmlab.cli import main
from filmlab.grid import GridCell, chain_of
from filmlab.io_formats import dumps_report, load_document, parse_input
from filmlab.pairs import Dipolyhedron

from references import wedge_split

FIX = "fixtures"
FIXTURES = ("cone", "empty_curve", "patch2x2", "square", "square_curve", "tilted_triangle")

# "{in}" is replaced by each fixture in turn
TEMPLATES = (
    ("mass", "{in}"),
    ("boundary", "{in}"),
    ("flatnorm", "{in}"),
    ("flatnorm", "{in}", "--method", "bnb", "--node-budget", "1000"),
    ("flatnorm", "{in}", "--node-budget", "-1"),
    ("eflat", "{in}"),
    ("eflat", "{in}", "--method", "bnb", "--node-budget", "100"),
    ("natural-norm", "{in}", "--levels", "1"),
    ("cone", "{in}", "--apex", "1/2,1/2,1"),
    ("clamp", "{in}", "--radius", "1/2"),
    ("pushforward", "{in}", "--matrix", "1,0,0,0,1,0,0,0,1", "--lipschitz", "1"),
    ("pushforward", "{in}", "--matrix", "2,0,0,0,1,0,0,0,1", "--lipschitz", "1"),
    ("restrict", "{in}", "--box", "0,0,0,1,1,1"),
    ("deform", "{in}", "--eps", "1", "--centers", "4"),
    ("span-check", "{in}", "--curve", f"{FIX}/square_curve.json"),
    ("diagnostics", "{in}"),
    ("plateau", "--curve", "{in}"),
)

FORMS = [
    tuple(f"{FIX}/{name}.json" if a == "{in}" else a for a in template)
    for template in TEMPLATES
    for name in FIXTURES
] + [
    # a grid pair: the fixtures hold a simplicial one only
    ("mass", "{pair}"),
    ("boundary", "{pair}"),
    ("eflat", "{pair}"),
    ("eflat", "{pair}", "--method", "bnb", "--node-budget", "100"),
    ("eflat", "{pair}", "--node-budget", "-1"),
    ("cone", "{pair}"),
    ("clamp", "{pair}", "--radius", "1"),
    ("restrict", "{pair}", "--box", "0,0,0,2,2,1"),
    ("span-check", "{pair}", "--curve", f"{FIX}/square_curve.json"),
    ("diagnostics", "{pair}"),
    ("plateau", "--curve", f"{FIX}/square_curve.json", "--method", "bnb"),
    ("plateau", "--curve", f"{FIX}/square_curve.json", "--method", "local"),
    ("mass",),
    ("flatnorm", f"{FIX}/square.json", "--method", "nope"),
    ("plateau", "--curve", f"{FIX}/square_curve.json", "--eps", "1/2"),
    ("deform", f"{FIX}/tilted_triangle.json", "--eps", "1", "--origin", "0,0,0"),
]

# " ".join(argv): (exit code, stdout sha256, stderr sha256)
PINS = {
    'mass fixtures/cone.json': (0, '9c59bed4117e619bae629de7554d358420bea4639402e446b2daa04b5ed07e49', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mass fixtures/empty_curve.json': (0, 'b138a46f28127a4c4e0785767d5e8e105df1d61003924e8cb078b7acae2e5870', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mass fixtures/patch2x2.json': (0, 'a39a4ec8cd850512455239b202e868ad23d3944cb051e6de08da37cab94581fe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mass fixtures/square.json': (0, '9e35917fbf74e8c9e2987aee593494a0df6bea4fed584ae5926a455ce1b40cd2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mass fixtures/square_curve.json': (0, '9e35917fbf74e8c9e2987aee593494a0df6bea4fed584ae5926a455ce1b40cd2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mass fixtures/tilted_triangle.json': (0, '983645e56ccee0e3e8caa9ab89611e27648dad882431ca7b05c3ef214465484f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary fixtures/cone.json': (0, '123a1a5916a0243999eb5f59de668829c2b2ea368be4839a9a952898600078da', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary fixtures/empty_curve.json': (0, '8f156f35286781ee9f793d17ad96fd6bd9d7766ff3aeea38666d7a96c175c92e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary fixtures/patch2x2.json': (0, '65359d5aa5f1b5b064dc141b8c8e907162fa43fed43db6b70bb0c3b77830bda0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary fixtures/square.json': (0, '8f156f35286781ee9f793d17ad96fd6bd9d7766ff3aeea38666d7a96c175c92e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary fixtures/square_curve.json': (0, '70861cf4ed1c71050d9687af435aa77c35e2b7fb670ab825852b5aa676a4ddbf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary fixtures/tilted_triangle.json': (0, '906b253dde6625dccaca91e5929b6ef349314b80473e068b2e75dbe31a68a305', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/cone.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2fa183ca843120cfbb58ca89dfbc4a803337474a8656b099cd5932783255842d'),
    'flatnorm fixtures/empty_curve.json': (0, '07a155aa9b16769e46f3bc37754a6f5f0164806882a7acdb5f98cadd88ad2abf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/patch2x2.json': (0, 'f9094fe343a3c113910b3a96d950cd180fa5e9edef73f1a45091a62513017378', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/square.json': (0, '05c975d6821a29c5acb0d6bebf859157352e0824a8a97e0a55d2d3c7e5e1d139', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/square_curve.json': (0, 'ed938d148bb10c2464b870ed6d79bf1396b583cb562bcf53808ef8cfd1205843', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/tilted_triangle.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2fa183ca843120cfbb58ca89dfbc4a803337474a8656b099cd5932783255842d'),
    'flatnorm fixtures/cone.json --method bnb --node-budget 1000': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2fa183ca843120cfbb58ca89dfbc4a803337474a8656b099cd5932783255842d'),
    'flatnorm fixtures/empty_curve.json --method bnb --node-budget 1000': (0, '07a155aa9b16769e46f3bc37754a6f5f0164806882a7acdb5f98cadd88ad2abf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/patch2x2.json --method bnb --node-budget 1000': (0, 'f9094fe343a3c113910b3a96d950cd180fa5e9edef73f1a45091a62513017378', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/square.json --method bnb --node-budget 1000': (0, '05c975d6821a29c5acb0d6bebf859157352e0824a8a97e0a55d2d3c7e5e1d139', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/square_curve.json --method bnb --node-budget 1000': (0, 'ed938d148bb10c2464b870ed6d79bf1396b583cb562bcf53808ef8cfd1205843', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'flatnorm fixtures/tilted_triangle.json --method bnb --node-budget 1000': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2fa183ca843120cfbb58ca89dfbc4a803337474a8656b099cd5932783255842d'),
    'flatnorm fixtures/cone.json --node-budget -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2fa183ca843120cfbb58ca89dfbc4a803337474a8656b099cd5932783255842d'),
    'flatnorm fixtures/empty_curve.json --node-budget -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6a744b7118878013ede7bfba935cc5440bea32b6222427be976fea5f60bbf237'),
    'flatnorm fixtures/patch2x2.json --node-budget -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6a744b7118878013ede7bfba935cc5440bea32b6222427be976fea5f60bbf237'),
    'flatnorm fixtures/square.json --node-budget -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6a744b7118878013ede7bfba935cc5440bea32b6222427be976fea5f60bbf237'),
    'flatnorm fixtures/square_curve.json --node-budget -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6a744b7118878013ede7bfba935cc5440bea32b6222427be976fea5f60bbf237'),
    'flatnorm fixtures/tilted_triangle.json --node-budget -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2fa183ca843120cfbb58ca89dfbc4a803337474a8656b099cd5932783255842d'),
    'eflat fixtures/cone.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'aaf22db0530bff3ad22494a3b1fd26bf01178f51ec54c5173aff20a92bfa9490'),
    'eflat fixtures/empty_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/patch2x2.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/square.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/square_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/tilted_triangle.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/cone.json --method bnb --node-budget 100': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'aaf22db0530bff3ad22494a3b1fd26bf01178f51ec54c5173aff20a92bfa9490'),
    'eflat fixtures/empty_curve.json --method bnb --node-budget 100': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/patch2x2.json --method bnb --node-budget 100': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/square.json --method bnb --node-budget 100': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/square_curve.json --method bnb --node-budget 100': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'eflat fixtures/tilted_triangle.json --method bnb --node-budget 100': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4bd391174e2bc0c7629d987410b59e58534dd03a10bb695571c870b3b3439a88'),
    'natural-norm fixtures/cone.json --levels 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '005e04f0351face69c20e77dea1df9149991dbf0e163737008597f67ebf492cc'),
    'natural-norm fixtures/empty_curve.json --levels 1': (0, 'e94fb0a55b08d4ab4e9e7ea54da44b2d9060159a2b1092127c7c2dbfcd9869ed', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'natural-norm fixtures/patch2x2.json --levels 1': (0, 'ab5584586f695d7c6fab4efa4940f22de6f5893ddabb2299a338c58924e97532', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'natural-norm fixtures/square.json --levels 1': (0, '8ffa41429bcdcea846d4a953c379b4659b68dd19b027156a0a8d8e8b262d5227', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'natural-norm fixtures/square_curve.json --levels 1': (0, '43c5f81a62550e5fb43d328c5b997b6220d62ff9624c383c2221193bff353467', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'natural-norm fixtures/tilted_triangle.json --levels 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '005e04f0351face69c20e77dea1df9149991dbf0e163737008597f67ebf492cc'),
    'cone fixtures/cone.json --apex 1/2,1/2,1': (0, '1ed3e6c16d0b6aed8d5b25046bcb73907176249c7d8dcb0041b8882992dca932', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'cone fixtures/empty_curve.json --apex 1/2,1/2,1': (0, '7c8ce162dcb6d0364773e4b650ff1bf73426ec647ab366866ea85140ae8c0a4f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'cone fixtures/patch2x2.json --apex 1/2,1/2,1': (0, '8cd6617f925a09160b938e1315accfa5ba4e04a6b134650c6b02f608d06191ca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'cone fixtures/square.json --apex 1/2,1/2,1': (0, 'e1d0352930126980dc701a7aaea14b68720700f9c3a1861c89ef3fa7737ebfbd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'cone fixtures/square_curve.json --apex 1/2,1/2,1': (0, '6af10566c6dfe6af776590b59c865ab6a53e9768b1db9f978d5ec3528c2e54d3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'cone fixtures/tilted_triangle.json --apex 1/2,1/2,1': (0, 'f51dc4645b7284f6741c4c16eae59872ad1fbdc7b83d522632b4a753edef4da9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'clamp fixtures/cone.json --radius 1/2': (0, '5450e72f5874fd27c3240b272e46cef942d14600eaea3271596cee223f2fafbe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'clamp fixtures/empty_curve.json --radius 1/2': (0, '97d5831f369b7536e38d657ee661464a950e85a8f13a24aedb3b5d83809b1cfd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'clamp fixtures/patch2x2.json --radius 1/2': (0, '1660a2c40673e11228bd764652617e002a85f8657e2e9d93ef41498016d32ba2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'clamp fixtures/square.json --radius 1/2': (0, 'a5ed250d82dcdae7dbca48c1f58fe28afc6b4129a792b8a9dc96ae634dec5f03', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'clamp fixtures/square_curve.json --radius 1/2': (0, 'bb17ae81686e1233cf9470331e013bbe8fef471180ca099c9f472031690c6722', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'clamp fixtures/tilted_triangle.json --radius 1/2': (0, 'cf215ae5b083c9250e9d573e6ad4e11036f6e764c1bf69259055181f02befb6e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pushforward fixtures/cone.json --matrix 1,0,0,0,1,0,0,0,1 --lipschitz 1': (0, '4e110e99a0ddf6a46fa068fc3372f8eee351b0e9f0102451f783d431a35c25fa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pushforward fixtures/empty_curve.json --matrix 1,0,0,0,1,0,0,0,1 --lipschitz 1': (0, '8c742d7621fb21bb099f5db94dc6b34c037dc6315ebb2cb3fe85e9d92d68b3ce', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pushforward fixtures/patch2x2.json --matrix 1,0,0,0,1,0,0,0,1 --lipschitz 1': (0, '901ac52d8a5a2d6b8770bdc5a4d6fdac185e8cf1c4070d9afce78e5e8f447afd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pushforward fixtures/square.json --matrix 1,0,0,0,1,0,0,0,1 --lipschitz 1': (0, '381e28dff44b9d8200f5cde265a4e438ae99f3d190107d07c86a69ee72ecd546', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pushforward fixtures/square_curve.json --matrix 1,0,0,0,1,0,0,0,1 --lipschitz 1': (0, '4438c9676958e671ec7c9c858e3b38d798cfa089a5eb7cc371694a3311faef90', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pushforward fixtures/tilted_triangle.json --matrix 1,0,0,0,1,0,0,0,1 --lipschitz 1': (0, 'bdf514d37f310926a82a7e2e1a39f5c71c779f39b9820948f790a8a08e89573c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pushforward fixtures/cone.json --matrix 2,0,0,0,1,0,0,0,1 --lipschitz 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '0fe0d3719b81a3c98644ee098e33933fcd2bc25641e8ad6f5669c7ab9925b6b5'),
    'pushforward fixtures/empty_curve.json --matrix 2,0,0,0,1,0,0,0,1 --lipschitz 1': (0, '8c742d7621fb21bb099f5db94dc6b34c037dc6315ebb2cb3fe85e9d92d68b3ce', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'pushforward fixtures/patch2x2.json --matrix 2,0,0,0,1,0,0,0,1 --lipschitz 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e1903fc1a39cf0c69c23bcf1850650e94cdf5772293f3bcc7552b2434717033b'),
    'pushforward fixtures/square.json --matrix 2,0,0,0,1,0,0,0,1 --lipschitz 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3b818c6b1677c24f87fe0b5bc9559829fc7512648efb8518702c3e5c32a2b8aa'),
    'pushforward fixtures/square_curve.json --matrix 2,0,0,0,1,0,0,0,1 --lipschitz 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9e201a57ccb645b0ec2784c6dc35bf8b26cff535d0a4330cdad2228d45d54af3'),
    'pushforward fixtures/tilted_triangle.json --matrix 2,0,0,0,1,0,0,0,1 --lipschitz 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '572688dd8a0599d9d28bfdc42deb1b7ecbfde041627f931bac93e01cf061b348'),
    'restrict fixtures/cone.json --box 0,0,0,1,1,1': (0, 'adc90e3686dfa6c560767bd2c2de35baa389d8899f599af97402ad48b9b2b0da', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'restrict fixtures/empty_curve.json --box 0,0,0,1,1,1': (0, '63df507b543aaa72bc0dd61e9a83cc92a7c639cda42853e60fb09058e7737236', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'restrict fixtures/patch2x2.json --box 0,0,0,1,1,1': (0, '45d447a56a21fc4dad74883b28060c679ce37d00d7cce09e17b60a4c0441ec8b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'restrict fixtures/square.json --box 0,0,0,1,1,1': (0, 'babd786a5d17de5dd075f193bfb1173d4609293dbafb676da1c1fc462d1b06ff', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'restrict fixtures/square_curve.json --box 0,0,0,1,1,1': (0, '251fcd3cc0fd03e6c70bdfd5da8e7410aedafdb4395e6ca969902e09c7cf6aef', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'restrict fixtures/tilted_triangle.json --box 0,0,0,1,1,1': (0, '4e37e050cc3502663784cfdd889a7bb5aeefa69f3c16f9438b90d7b10845bf2b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'deform fixtures/cone.json --eps 1 --centers 4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '30309dae312bf8ca16ad86b2d7bcdf8f93b6e236db3dd5712f0e5a03b31132a9'),
    'deform fixtures/empty_curve.json --eps 1 --centers 4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9e4ce058e6be001f6f80b6134bced2d7d519561a360e5b9bedd64712cb0df48e'),
    'deform fixtures/patch2x2.json --eps 1 --centers 4': (0, '512f624f365419b7e138625e40cc8b5a549d16925ff4e625ffe5d920e7bd4c19', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'deform fixtures/square.json --eps 1 --centers 4': (0, 'e509eeb2aa9e16b175573b85f39d5d685fe0f2f498ea168f61fd4277fe81ed78', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'deform fixtures/square_curve.json --eps 1 --centers 4': (0, 'a71547bc3fd3f57997b8ba630449d2a1221ea2937b0d304cd4db72ca4ab789e6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'deform fixtures/tilted_triangle.json --eps 1 --centers 4': (0, '25a25e5553e2a0b106964bfb4aaff4e3c9588e567a2894e34be514da82b9913c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'span-check fixtures/cone.json --curve fixtures/square_curve.json': (0, '4b3b8ed8f154db0c8f031e24b7d70161e98ef4f00a193b05490ade36d6a440ab', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'span-check fixtures/empty_curve.json --curve fixtures/square_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3997b5a5d4b16ee363f78486846e02f6a60d949f5c53b6f422aaa9677ebe0e7'),
    'span-check fixtures/patch2x2.json --curve fixtures/square_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3997b5a5d4b16ee363f78486846e02f6a60d949f5c53b6f422aaa9677ebe0e7'),
    'span-check fixtures/square.json --curve fixtures/square_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3997b5a5d4b16ee363f78486846e02f6a60d949f5c53b6f422aaa9677ebe0e7'),
    'span-check fixtures/square_curve.json --curve fixtures/square_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3997b5a5d4b16ee363f78486846e02f6a60d949f5c53b6f422aaa9677ebe0e7'),
    'span-check fixtures/tilted_triangle.json --curve fixtures/square_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3997b5a5d4b16ee363f78486846e02f6a60d949f5c53b6f422aaa9677ebe0e7'),
    'diagnostics fixtures/cone.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'db4c012fcdf6af434b891a68f0fc37d19a5b18400607d4c0c9544e552b41f234'),
    'diagnostics fixtures/empty_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '97de5040e2fa28336840a22ac1ff904cd43067bb7b682d7889b277fd895fcc27'),
    'diagnostics fixtures/patch2x2.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '97de5040e2fa28336840a22ac1ff904cd43067bb7b682d7889b277fd895fcc27'),
    'diagnostics fixtures/square.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '97de5040e2fa28336840a22ac1ff904cd43067bb7b682d7889b277fd895fcc27'),
    'diagnostics fixtures/square_curve.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '97de5040e2fa28336840a22ac1ff904cd43067bb7b682d7889b277fd895fcc27'),
    'diagnostics fixtures/tilted_triangle.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '97de5040e2fa28336840a22ac1ff904cd43067bb7b682d7889b277fd895fcc27'),
    'plateau --curve fixtures/cone.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b80adde50d8822547e2fcca11417861bed81a23f4d20129ae22a841c51e46afc'),
    'plateau --curve fixtures/empty_curve.json': (0, '5a230a4fdcaf993c47feee3002ecd8e418fc608621f2bc0e59d3e6539000a9ca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'plateau --curve fixtures/patch2x2.json': (0, 'fe798127dd41bc934e4867994b5949219d1da29520b32e4ff13bad206fea3f6b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'plateau --curve fixtures/square.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '5f317757ba4b24c659c0da16ccba0e5269292728135978ed98ecf83b11c4322a'),
    'plateau --curve fixtures/square_curve.json': (0, 'c89b4c98dd3dddbdd45e743a83b81d8b9acdc9d8eabc3dbd87b45dcb0f0d8a8c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'plateau --curve fixtures/tilted_triangle.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b80adde50d8822547e2fcca11417861bed81a23f4d20129ae22a841c51e46afc'),
    'mass {pair}': (0, '84c87d35c30e3107aa3f97a686ff6bbc7995e113dfbbdd3e08a698859400bf29', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary {pair}': (0, '2ad730fafb4779099a55f212e45eaf68158145d5ffbbddae4ed4bad66582561e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'eflat {pair}': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8f08ae91042aaf7b15f08fa290f53bde058feb740110efbcc6db4c8f81614470'),
    'eflat {pair} --method bnb --node-budget 100': (0, 'ea0bd4a208d60d70380453248db89f1e24afcab3173d077d87bd436360a362de', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'eflat {pair} --node-budget -1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a908c84e056c01e3cfd41a5a254468c81111a7f51636286586d7ef3a57f6b665'),
    'cone {pair}': (0, '226ce417ab60a8a7e5c8271023c9dfe2795ebe3fd1efd006cbd774b86694b3fe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'clamp {pair} --radius 1': (0, 'da81498dc34e9c6235719f659947fcd741df17482fd26f0d7bf52880c8d3d9be', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'restrict {pair} --box 0,0,0,2,2,1': (0, '1fe9df1a1728864655243571016c963612e7898618e86c384e48663c6409545d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'span-check {pair} --curve fixtures/square_curve.json': (0, '831885aefe21207b8199516e803962b0c807a99016544bc8ad06015401ced4fe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'diagnostics {pair}': (0, '1d3dc9decbfff99cc8e572fac79c9c57774f51c8f8d19c5630e30d2a57e1a686', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'plateau --curve fixtures/square_curve.json --method bnb': (0, '9961164c7aa88e279b1f5ad9d71e2ef967aa4b5304a5734c8400e74d51004751', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'plateau --curve fixtures/square_curve.json --method local': (0, '4b2c42a44639db1ddee7e3dc3bbe2f447edd025e6fab7690f80ddca7b03eb9ff', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mass': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '39f57b774ed0a192b05a4e3067f47eb8cfa401e82969b4024f7881a183b2c2d6'),
    'flatnorm fixtures/square.json --method nope': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '914dc9b290084e96e54e08409f850743023cffd6f5852c28ce80de29c0bc14c7'),
    'plateau --curve fixtures/square_curve.json --eps 1/2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '51e868631d6cf02a96b13c4090558a27f35e2a0132dc82326d14f4635b0ad279'),
    'deform fixtures/tilted_triangle.json --eps 1 --origin 0,0,0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '884a7190757140c2d48e38e03aa69906cabd40bf9a63d2685ce6c7de42ade87b'),
}


@pytest.fixture(scope="module")
def pair_path(tmp_path_factory):
    """Three squares on the square curve's grid, with the curve as mass part."""
    curve = parse_input(load_document(f"{FIX}/square_curve.json"))
    squares = [GridCell((1, 1, 0), (0, 1)), GridCell((1, 1, 0), (0, 2)), GridCell((0, 0, 1), (1, 2))]
    path = tmp_path_factory.mktemp("pin") / "pair.json"
    path.write_text(dumps_report(Dipolyhedron(chain_of(curve.grid, 2, squares), curve)))
    return str(path)


# the deform forms whose stdout the facet-cone projection moved: their
# presentations of Q and R.  The wedge-split reference still prints these
WEDGE_PINS = {
    'deform fixtures/square_curve.json --eps 1 --centers 4': (0, '62bf8f9ed4d1b9bdc8e68106001fad4c528867db2368e5e18fbd2327b576d2be', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'deform fixtures/tilted_triangle.json --eps 1 --centers 4': (0, 'c9ccc2a10b4912fb13bc5901681b709a67931240611eba0b168a9dd73cae0c46', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return (code, *digest)


@pytest.mark.parametrize("argv", FORMS, ids=" ".join)
def test_cli_output_pinned(argv, pair_path):
    got = run([pair_path if a == "{pair}" else a for a in argv])
    assert got == PINS[" ".join(argv)]


@pytest.mark.parametrize("argv", [f for f in FORMS if f[0] == "deform"], ids=" ".join)
def test_cli_deform_pinned_under_the_wedge_split(argv):
    """Every deform form with the projection sent to the wedge-split
    reference prints what it printed before the facet-cone projection."""
    key = " ".join(argv)
    with wedge_split():
        assert run(argv) == WEDGE_PINS.get(key, PINS[key])
